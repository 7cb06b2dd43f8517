package perfbench

import scala.collection.mutable
import scala.util.control.NonFatal

import org.apache.spark.sql.{Row, SparkSession}

import repro.core.{ChunkGraph, Engine}

/** One call of a pass: wall seconds from building its frame to holding
  * its rows, and whether it returned and passed its check.
  */
final case class CallResult(name: String, wallS: Double, ok: Boolean)

/** One pass over a workload's calls on a fresh engine: cached RDD bytes
  * when it started and their peak rise above that during the pass, and
  * the per-layer metrics when the pass was traced.
  */
final case class PassResult(
    calls: Vector[CallResult],
    startCachedBytes: Long,
    peakCachedBytes: Long,
    paths: PathCounts,
    layers: Map[String, Double]) {
  def wallS: Double = calls.map(_.wallS).sum
}

/** Runs a workload: set-up, references, warm-up, then passes for the
  * measurement window. Untraced passes time each call as one span; traced
  * passes split each call into the public calls of the engine layers
  * (`Engine.tile`, `Engine.execute`, `XFrame.toDF().collect()`) and read
  * the engine, storage and Spark counters around the pass.
  */
final class Runner(spark: SparkSession, wl: Workload, seed: Long, counters: SparkCounters,
    val log: String => Unit) {

  private val sc = spark.sparkContext
  val failures: mutable.ArrayBuffer[String] = mutable.ArrayBuffer.empty

  def now(): Double = System.nanoTime() / 1e9

  /** Set up `n` times from scratch; keeps the last inputs and engine. */
  def setup(n: Int): (Seq[Double], Inputs) = {
    var last: Option[Inputs] = None
    val times = (1 to n).map { _ =>
      last.foreach(_.release())
      val t0 = now()
      val in = wl.setup(spark, seed)
      in.calls(new Engine(spark, wl.config))
      val dt = now() - t0
      last = Some(in)
      dt
    }
    (times, last.get)
  }

  /** Time one call; its check runs after the timer stops. A throw or a
    * failed check marks the call failed and the pass goes on.
    */
  private def timed(c: Call)(body: => Seq[Row]): CallResult = {
    val t0 = now()
    val rows = try Right(Phase(sc, Phase.Measured)(body)) catch { case NonFatal(e) => Left(e) }
    val wall = now() - t0
    val ok = rows match {
      case Left(e) =>
        failures += s"${c.name}: threw ${e.getClass.getSimpleName}: ${e.getMessage}"; false
      case Right(rs) =>
        try { c.check(rs); true } catch {
          case NonFatal(e) => failures += s"${c.name}: ${e.getMessage}"; false
        }
    }
    CallResult(c.name, wall, ok)
  }

  def pass(in: Inputs, traced: Boolean): PassResult = {
    val e = new Engine(spark, wl.config)
    val calls = in.calls(e)
    val layers = mutable.LinkedHashMap[String, Double]().withDefaultValue(0.0)
    val startCached = counters.resetPeak()
    val spark0 = counters.totals()
    val results = calls.map { c =>
      if (!traced) timed(c)(c.build(e).toDF().collect().toSeq)
      else {
        var chunks: Vector[repro.core.ChunkTask] = Vector.empty
        val r = timed(c) {
          val traces = e.stats.traces
          val n0 = traces.size
          val t0 = now()
          val xf = c.build(e)
          val t1 = now()
          chunks = e.tile(xf.tileable)
          val t2 = now()
          val n1 = traces.size
          e.execute(chunks)
          val t3 = now()
          val n2 = traces.size
          val rows = xf.toDF().collect().toSeq
          val t4 = now()
          val yieldExec = traces.slice(n0, n1).map(_.wallMs).sum / 1e3
          val subtasks = traces.slice(n1, n2).map(_.wallMs).sum / 1e3
          layers("tile.s") += t2 - t1
          layers("tile.yield_exec_s") += yieldExec
          layers("tile.self_s") += Stats.selfTime(t2 - t1, Seq(yieldExec))
          layers("plan.self_s") += Stats.selfTime(t3 - t2, Seq(subtasks))
          layers("exec.subtask_s") += subtasks
          layers("collect.s") += t4 - t3
          layers("trace.unaccounted_s") += Stats.selfTime(t4 - t0, Seq(t2 - t1, t3 - t2, t4 - t3))
          rows
        }
        layers("tile.chunk_tasks") += ChunkGraph.closure(chunks, _ => false).size
        layers(s"call.${c.name}_s") += r.wallS
        r
      }
    }
    val peak = counters.peakCachedBytes() - startCached
    val st = e.stats
    val ss = e.storage.stats
    val paths = PathCounts(st.tileExecSwitches, st.treeReduces, st.shuffleReduces,
      st.broadcastMerges, st.shuffleMerges, ss.spills)
    if (traced) {
      val sp = counters.totals() - spark0
      def job(layer: String) = sp.jobS.getOrElse(layer, 0.0)
      layers ++= Seq(
        "tile.yields" -> st.tileExecSwitches.toDouble,
        "tile.tree_reduces" -> st.treeReduces.toDouble,
        "tile.shuffle_reduces" -> st.shuffleReduces.toDouble,
        "tile.broadcast_merges" -> st.broadcastMerges.toDouble,
        "tile.shuffle_merges" -> st.shuffleMerges.toDouble,
        "tile.source_index_s" -> job(Attribution.SourceIndex),
        "tile.reindex_s" -> job(Attribution.Reindex),
        "fuse.subtasks" -> st.subtasksExecuted.toDouble,
        "fuse.tasks_fused_away" -> st.tasksFusedAway.toDouble,
        "fuse.narrow_steps_fused" -> st.narrowStepsFused.toDouble,
        "sched.remote_read_frac" -> (if (ss.gets == 0) 0.0 else ss.remoteGets.toDouble / ss.gets),
        "exec.chunk_tasks_run" -> st.tasksExecuted.toDouble,
        "storage.puts" -> ss.puts.toDouble,
        "storage.gets" -> ss.gets.toDouble,
        "storage.spills" -> ss.spills.toDouble,
        "storage.spilled_mb" -> ss.spilledBytes / 1e6,
        "storage.peak_accounted_mb" -> ss.peakMemBytes / 1e6,
        "storage.put_job_s" -> job(Attribution.Put),
        "storage.spill_job_s" -> job(Attribution.Spill),
        "collect.job_s" -> job(Attribution.Collect),
        "spark.jobs" -> sp.jobs.toDouble,
        "spark.stages" -> sp.stages.toDouble,
        "spark.tasks" -> sp.tasks.toDouble,
        "spark.job_s" -> sp.totalJobS,
        "spark.task_run_s" -> sp.taskRunS,
        "spark.task_overhead_s" -> sp.taskOverheadS,
        "spark.empty_task_frac" -> (if (sp.tasks == 0) 0.0 else sp.emptyTasks.toDouble / sp.tasks),
        "spark.other_job_s" -> job(Attribution.Other),
      )
    }
    e.reset()
    PassResult(results, startCached, peak, paths, layers.toMap)
  }

  /** Passes until `seconds` have elapsed and the run has its minimum
    * samples: `Workload.minCallSamples` untraced calls, or one traced and
    * one untraced pass in traced runs, which alternate starting traced.
    */
  def measure(in: Inputs, seconds: Double, traced: Boolean): Vector[(Boolean, PassResult)] = {
    val out = mutable.ArrayBuffer[(Boolean, PassResult)]()
    val t0 = now()
    def untracedCalls = out.filterNot(_._1).map(_._2.calls.size).sum
    def enough =
      if (traced) out.exists(_._1) && out.exists(!_._1) else untracedCalls >= math.max(1, wl.minCallSamples)
    while (!enough || now() - t0 < seconds) {
      val tr = traced && out.size % 2 == 0
      val p = pass(in, tr)
      log(f"pass ${out.size}%d traced=$tr wall=${p.wallS}%.3fs " +
        p.calls.map(c => f"${c.name}=${c.wallS}%.2f").mkString(" "))
      out += tr -> p
    }
    out.toVector
  }

  /** Run the plain-Spark floor once, returning its wall seconds. */
  def floor(in: Inputs): Double = {
    val t0 = now()
    in.floor()
    now() - t0
  }
}
