package perfbench

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}

import org.apache.spark.sql.SparkSession

/** Benchmark entry point. Runs one workload at one seed for a measurement
  * window and writes one JSON report (environment, details and metrics)
  * to `--out`. `perfbench/run.py` builds the classpath and starts this.
  *
  * {{{
  * Main --workload tpch --seed 1 --seconds 20 --trace 0 --out report.json
  * }}}
  */
object Main {

  /** Set-ups per run; `setup_s` is their median. */
  val Setups = 3

  /** Session settings of the test harness (`SparkSpec`), never tuned here. */
  def sessionConf(cores: Int): Seq[(String, String)] = Seq(
    "spark.master" -> s"local[$cores]",
    "spark.sql.shuffle.partitions" -> "64",
    "spark.sql.autoBroadcastJoinThreshold" -> "-1",
    "spark.ui.enabled" -> "false",
    "spark.driver.host" -> "127.0.0.1",
    // Room for every task event of a pass, so counts never drop events.
    "spark.scheduler.listenerbus.eventqueue.capacity" -> "200000",
  )

  val EndToEnd: Seq[(String, String)] = Seq("wall_s" -> "s", "setup_s" -> "s", "peak_cached_mb" -> "MB")

  val PerLayer: Seq[(String, String)] = Seq(
    "tile.s" -> "s", "tile.yield_exec_s" -> "s", "tile.self_s" -> "s", "tile.yields" -> "count",
    "tile.chunk_tasks" -> "count", "tile.tree_reduces" -> "count", "tile.shuffle_reduces" -> "count",
    "tile.broadcast_merges" -> "count", "tile.shuffle_merges" -> "count",
    "tile.source_index_s" -> "s", "tile.reindex_s" -> "s",
    "plan.self_s" -> "s", "fuse.subtasks" -> "count", "fuse.tasks_fused_away" -> "count",
    "fuse.narrow_steps_fused" -> "count", "sched.remote_read_frac" -> "ratio",
    "exec.subtask_s" -> "s", "exec.chunk_tasks_run" -> "count",
    "storage.puts" -> "count", "storage.gets" -> "count", "storage.spills" -> "count",
    "storage.spilled_mb" -> "MB", "storage.peak_accounted_mb" -> "MB",
    "storage.put_job_s" -> "s", "storage.spill_job_s" -> "s",
    "spark.jobs" -> "count", "spark.stages" -> "count", "spark.tasks" -> "count",
    "spark.job_s" -> "s", "spark.task_run_s" -> "s", "spark.task_overhead_s" -> "s",
    "spark.empty_task_frac" -> "ratio", "spark.other_job_s" -> "s",
    "collect.s" -> "s", "collect.job_s" -> "s",
    "floor.spark_sql_s" -> "s",
    "trace.wall_s" -> "s", "trace.overhead_frac" -> "ratio", "trace.unaccounted_s" -> "s",
  )

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def opt(k: String) = opts.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val wl = Workloads.byName(opt("workload")).getOrElse(
      throw new IllegalArgumentException(s"unknown workload ${opt("workload")}; " +
        s"one of ${Workloads.all.map(_.name).mkString(", ")}"))
    val seed = opt("seed").toLong
    val seconds = opt("seconds").toDouble
    val traced = opt("trace") == "1"
    val out = Paths.get(opt("out"))

    val cores = math.min(4, Runtime.getRuntime.availableProcessors)
    val conf = sessionConf(cores)
    val spark = conf.foldLeft(SparkSession.builder().appName("perfbench")) {
      case (b, (k, v)) => b.config(k, v)
    }.getOrCreate()
    try {
      val counters = new SparkCounters(spark.sparkContext)
      val runner = new Runner(spark, wl, seed, counters, m => Console.err.println(s"[perfbench] $m"))
      val report = run(runner, wl, spark, seconds, traced, counters)
      val env = Json.obj(
        "commit" -> opts.getOrElse("commit", "unknown"),
        "workload" -> wl.name, "seed" -> seed, "seconds" -> seconds, "trace" -> traced,
        "nproc" -> Runtime.getRuntime.availableProcessors, "cores" -> cores,
        "spark_master" -> spark.sparkContext.master, "spark_version" -> spark.version,
        "java_version" -> System.getProperty("java.version"),
        "driver_heap_mb" -> Runtime.getRuntime.maxMemory / (1 << 20),
        "session" -> Json.obj(conf: _*),
        "params" -> Json.obj(wl.params: _*),
        "setups" -> Setups, "warmup_passes" -> wl.warmupPasses,
      )
      Files.write(out, Json.obj("environment" -> env, "report" -> report).s.getBytes(StandardCharsets.UTF_8))
    } finally spark.stop()
  }

  private def run(r: Runner, wl: Workload, spark: SparkSession, seconds: Double, traced: Boolean,
      counters: SparkCounters): Json.Raw = {
    val (setupTimes, in) = r.setup(Setups)
    r.log(s"setup ${setupTimes.map(t => f"$t%.2f").mkString(" ")} s")
    val referenceS = r.floor(in)
    r.log(f"references $referenceS%.2f s")
    val warm = (1 to wl.warmupPasses).map(_ => r.pass(in, traced = false))
    r.log(s"warm-up ${warm.map(_.calls.map(c => f"${c.name}=${c.wallS}%.2f").mkString(" ")).mkString("; ")}")
    val passes = r.measure(in, seconds, traced)
    val floorS = if (traced) r.floor(in) else referenceS

    val all = warm ++ passes.map(_._2)
    val outcomes = all.flatMap(_.calls.map(_.ok))
    val violations = all.flatMap(p => wl.pathCheck(p.paths, p.calls.size)).distinct
    val untraced = passes.filterNot(_._1).map(_._2)
    val tracedPasses = passes.filter(_._1).map(_._2)
    val callTimes = untraced.flatMap(_.calls.map(_.wallS))

    val metrics: Seq[(String, (Double, String))] =
      if (!traced) {
        val values = Map(
          "wall_s" -> Stats.median(untraced.map(_.wallS)),
          "setup_s" -> Stats.median(setupTimes),
          "peak_cached_mb" -> Stats.median(untraced.map(_.peakCachedBytes / 1e6)))
        EndToEnd.map { case (n, u) => n -> (values(n), u) }
      } else {
        val tracedWall = Stats.median(tracedPasses.map(_.wallS))
        val extra = Map(
          "floor.spark_sql_s" -> floorS,
          "trace.wall_s" -> tracedWall,
          "trace.overhead_frac" -> (tracedWall / Stats.median(untraced.map(_.wallS)) - 1))
        def layer(n: String) = extra.getOrElse(n, Stats.median(tracedPasses.map(_.layers.getOrElse(n, 0.0))))
        PerLayer.map { case (n, u) => n -> (layer(n), u) }
      }

    val callNames = all.head.calls.map(_.name)
    val perCall = callNames.zipWithIndex.map { case (n, i) =>
      n -> Stats.median(untraced.map(_.calls(i).wallS)) }
    val details = Json.obj(
      "setup_times_s" -> setupTimes, "reference_s" -> referenceS,
      "warmup_walls_s" -> warm.map(_.wallS),
      "pass_start_cached_mb" -> all.map(_.startCachedBytes / 1e6),
      "pass_walls_s" -> untraced.map(_.wallS),
      "traced_pass_walls_s" -> tracedPasses.map(_.wallS),
      "call_samples" -> callTimes.size,
      "call_p50_s" -> Stats.percentile(callTimes, 50),
      "call_tail" -> Json.obj(Stats.tailPercentile(callTimes.size).toSeq.map(p =>
        s"p${p.toInt}_s" -> Stats.percentile(callTimes, p)): _*),
      "calls_per_pass" -> callNames.size,
      "call_median_s" -> Json.obj(perCall: _*),
      "failed_frac" -> Stats.failedFrac(outcomes),
      "failures" -> r.failures.distinct.take(20).toSeq,
      "path_violations" -> violations,
      "unattributed_job_sites" -> Json.obj(counters.otherSites.toSeq: _*),
    )
    Json.obj(
      "correct" -> (outcomes.forall(identity) && violations.isEmpty),
      "attempted" -> outcomes.size,
      "failed" -> outcomes.count(ok => !ok),
      "metrics" -> Json.obj(metrics.map { case (n, (v, u)) => n -> Json.obj("value" -> v, "unit" -> u) }: _*),
      "details" -> details,
    )
  }
}

/** Minimal JSON writer for the report (values are rendered eagerly). */
object Json {
  final case class Raw(s: String)

  def obj(kvs: (String, Any)*): Raw = Raw(kvs.map { case (k, v) => s"${str(k)}: ${value(v)}" }.mkString("{", ", ", "}"))

  private def str(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"'  => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c    => b += c
    }
    (b += '"').toString
  }

  def value(v: Any): String = v match {
    case Raw(s)                   => s
    case s: String                => str(s)
    case b: Boolean               => b.toString
    case d: Double if d.isNaN || d.isInfinite => "null"
    case d: Double                => d.toString
    case n: Int                   => n.toString
    case n: Long                  => n.toString
    case xs: Iterable[_]          => xs.map(value).mkString("[", ", ", "]")
    case other                    => str(other.toString)
  }
}
