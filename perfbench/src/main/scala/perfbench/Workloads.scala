package perfbench

import scala.util.Random

import org.apache.spark.sql.{Column, DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.storage.StorageLevel

import repro.{Oracle, SynthData}
import repro.core.{Engine, EngineConfig, XFrame}
import repro.tpch.{TpchCtx, TpchData, TpchQueries}
import repro.workloads.{Census, Plasticc, Uc10}

/** One timed call: builds its frame on a fresh pass's engine; after the
  * timer stops, `check` compares the collected rows with the reference.
  */
final case class Call(name: String, build: Engine => XFrame, check: Seq[Row] => Unit)

/** Engine and storage counts of one pass that show which tiling and
  * storage paths it took.
  */
final case class PathCounts(
    yields: Long, treeReduces: Long, shuffleReduces: Long,
    broadcastMerges: Long, shuffleMerges: Long, spills: Long)

/** A workload's inputs for one seed, generated and cached. */
trait Inputs {

  /** The calls of one pass, over sources registered on `e`. */
  def calls(e: Engine): Vector[Call]

  /** The same calls through plain Spark, without the engine: run once to
    * build the references the calls are checked against (validated by the
    * DuckDB oracle where the workload has SQL), and again to time the floor.
    */
  def floor(): Unit

  /** Unpersist the cached inputs. */
  def release(): Unit
}

trait Workload {
  def name: String
  def config: EngineConfig
  /** Input sizes and call mix, recorded with every result. */
  def params: Seq[(String, String)]
  def setup(spark: SparkSession, seed: Long): Inputs
  /** The paths the workload was chosen for, checked on every pass so that
    * configuration drift fails the run; returns the violated expectations.
    */
  def pathCheck(c: PathCounts, calls: Int): Seq[String]
  /** Untraced call samples a run needs before it stops, so that the call
    * latency percentiles it reports have enough samples beyond them.
    */
  def minCallSamples: Int = 0
  /** Checked, unreported passes before measuring. */
  def warmupPasses: Int = 1
}

object Workloads {
  val all: Seq[Workload] = Seq(Tpch, Explore, EtlSpill)
  def byName(n: String): Option[Workload] = all.find(_.name == n)

  private[perfbench] def cache(df: DataFrame): DataFrame = {
    val c = df.persist(StorageLevel.MEMORY_AND_DISK)
    c.count()
    c
  }

  /** Rows of `df` with its columns in the order of `cols` (case-insensitive). */
  private[perfbench] def byColumns(rows: Seq[Row], cols: Seq[String]): Seq[Row] =
    rows.map { r =>
      val names = r.schema.fieldNames.map(_.toLowerCase)
      Row.fromSeq(cols.map { c =>
        val i = names.indexOf(c.toLowerCase)
        if (i < 0) throw new AssertionError(s"missing column $c in ${names.mkString(",")}")
        r.get(i)
      })
    }

  /** `df` reduced to the columns `sql` names, which is all the oracle
    * needs to load.
    */
  private def usedColumns(df: DataFrame, sql: String): DataFrame =
    df.select(df.columns.filter(c => s"\\b$c\\b".r.findFirstIn(sql).isDefined).map(col).toSeq: _*)

  /** Reference result of an unordered query: plain Spark SQL over the
    * inputs, validated once against DuckDB running the same SQL.
    */
  private[perfbench] final class SqlReference(spark: SparkSession, sql: String,
      duckSql: Seq[(String, DataFrame)] => String, tables: Seq[(String, DataFrame)]) {
    private var ref: Option[(Seq[String], Seq[Row])] = None

    def run(): Unit = {
      val df = spark.sql(sql)
      val rows = df.collect().toSeq
      if (ref.isEmpty) {
        val used = tables.map { case (n, t) => n -> usedColumns(t, sql) }
        Oracle.assertEquivalentApprox(df, duckSql(used), used)
        ref = Some((df.columns.toSeq, rows))
      }
    }

    def check(got: Seq[Row]): Unit = {
      val (cols, want) = ref.getOrElse(throw new IllegalStateException("reference not built"))
      Check.sameSet(byColumns(got, cols), want)
    }
  }
}

import Workloads._

/** TPC-H-lite Q3 and Q18: every dynamic-tiling decision (tree and
  * shuffle reduce, broadcast and shuffle merge) at a size where the cost of
  * one Spark job per materialized chunk dominates and nothing spills.
  */
object Tpch extends Workload {
  val name = "tpch"
  val sf = 0.001
  val queries: Seq[Int] = Seq(3, 18)
  val config: EngineConfig = EngineConfig(
    chunkSizeLimit = 512L << 10, treeReduceThreshold = 16L << 10, broadcastThreshold = 2L << 10)
  def params: Seq[(String, String)] = Seq(
    "sf" -> sf.toString, "queries" -> queries.map(q => s"Q$q").mkString(","),
    "chunk_size_limit" -> config.chunkSizeLimit.toString,
    "tree_reduce_threshold" -> config.treeReduceThreshold.toString,
    "broadcast_threshold" -> config.broadcastThreshold.toString,
    "memory_budget" -> config.memoryBudget.toString)

  def setup(spark: SparkSession, seed: Long): Inputs = {
    val s = seed * 1000
    val qs = queries.map(TpchQueries.byId)
    val generators: Map[String, () => DataFrame] = Map(
      "lineitem" -> (() => SynthData.lineitemFull(spark, sf, s)),
      "orders"   -> (() => SynthData.ordersFull(spark, sf, s + 1)),
      "customer" -> (() => SynthData.customerFull(spark, sf, s + 2)),
      "part"     -> (() => SynthData.partFull(spark, sf, s + 5)),
      "supplier" -> (() => SynthData.supplier(spark, sf, s + 6)),
      "partsupp" -> (() => SynthData.partsupp(spark, sf, s + 7)),
      "nation"   -> (() => SynthData.nation(spark)),
      "region"   -> (() => SynthData.region(spark)),
    )
    val tables = qs.flatMap(_.tables).distinct.map(n => n -> cache(generators(n)())).toMap
    // Sources the queries never read are registered but not generated.
    val all = generators.map { case (n, g) => n -> tables.getOrElse(n, g()) }
    val refs = qs.map { q =>
      val used = tables.view.filterKeys(q.tables.contains).toMap
      used.foreach { case (n, df) => df.createOrReplaceTempView(s"${n}_t") }
      q.id -> new SqlReference(spark, q.sql, ts => TpchData.fullSql(q, ts.toMap), used.toSeq)
    }.toMap
    new Inputs {
      def calls(e: Engine): Vector[Call] = {
        val ctx = TpchCtx(e, all)
        qs.toVector.map(q => Call(s"q${q.id}", _ => q.run(ctx), refs(q.id).check))
      }
      def floor(): Unit = qs.foreach(q => refs(q.id).run())
      def release(): Unit = tables.values.foreach(_.unpersist(true))
    }
  }

  def pathCheck(c: PathCounts, calls: Int): Seq[String] = Seq(
    (c.treeReduces >= 1) -> "a tree reduce",
    (c.shuffleReduces >= 1) -> "a shuffle reduce",
    (c.broadcastMerges >= 1) -> "a broadcast merge",
    (c.shuffleMerges >= 1) -> "a shuffle merge",
    (c.spills == 0) -> "no spill",
  ).collect { case (false, what) => s"tpch expects $what per pass" }
}

/** An interactive session on one lineitem frame: filter→head,
  * filter→iloc, filter→ilocRange and select→sort→head, cycling. Every call
  * tiles iteratively (it yields on all its input chunks) and never hashes.
  */
object Explore extends Workload {
  val name = "explore"
  val sf = 0.001
  val cycles = 5
  val config: EngineConfig = EngineConfig(chunkSizeLimit = 512L << 10)
  override def minCallSamples: Int = 40
  def params: Seq[(String, String)] = Seq(
    "sf" -> sf.toString, "calls" -> (4 * cycles).toString,
    "mix" -> "filter>head(20), filter>iloc(i), filter>ilocRange(i,i+50), select>sortValues>head(10)",
    "chunk_size_limit" -> config.chunkSizeLimit.toString,
    "memory_budget" -> config.memoryBudget.toString)

  private val sortCols = Seq("l_orderkey", "l_linenumber", "l_extendedprice", "l_shipdate")

  def setup(spark: SparkSession, seed: Long): Inputs = {
    val src = cache(SynthData.lineitemFull(spark, sf, seed * 1000))
    val nRows = src.count()
    val rnd = new Random(seed)
    // (name, engine call, plain-Spark reference, comparison)
    val specs: Vector[(String, XFrame => XFrame, () => Seq[Row], (Seq[Row], Seq[Row]) => Unit)] =
      (0 until cycles).toVector.flatMap { k =>
        val price = 20000 + rnd.nextInt(60000)
        val qty = 5 + rnd.nextInt(30)
        val disc = 0.03 + rnd.nextInt(5) * 0.01
        val pos = rnd.nextInt((nRows / 10).toInt)
        val asc = rnd.nextBoolean()
        val byPrice: Column = col("l_extendedprice") < price
        val byQty: Column = col("l_quantity") > qty
        val byDisc: Column = col("l_discount") <= disc
        def filtered(c: Column) = src.filter(c).collect().toSeq
        Vector(
          (s"head$k", (f: XFrame) => f.filter(byPrice).head(20),
            () => filtered(byPrice).take(20), Check.samePositional _),
          (s"iloc$k", (f: XFrame) => f.filter(byQty).iloc(pos),
            () => filtered(byQty).slice(pos, pos + 1), Check.samePositional _),
          (s"range$k", (f: XFrame) => f.filter(byDisc).ilocRange(pos, pos + 50),
            () => filtered(byDisc).slice(pos, pos + 50), Check.samePositional _),
          (s"sort$k", (f: XFrame) => f.select(sortCols: _*)
              .sortValues(Seq("l_extendedprice", "l_orderkey"), Seq(asc, true)).head(10),
            () => src.select(sortCols.map(col): _*)
              .orderBy(if (asc) col("l_extendedprice").asc else col("l_extendedprice").desc, col("l_orderkey").asc)
              .limit(10).collect().toSeq,
            (g: Seq[Row], w: Seq[Row]) => Check.sameSorted(g, w, Seq(2, 0))),
        )
      }
    val refs = Array.fill[Seq[Row]](specs.size)(Seq.empty)
    new Inputs {
      def calls(e: Engine): Vector[Call] = {
        val frame = XFrame.source(e, "lineitem", src)
        specs.zipWithIndex.map { case ((n, run, _, cmp), i) =>
          Call(n, _ => run(frame), got => cmp(got, refs(i)))
        }
      }
      def floor(): Unit = specs.zipWithIndex.foreach { case ((_, _, ref, _), i) => refs(i) = ref() }
      def release(): Unit = src.unpersist(true)
    }
  }

  def pathCheck(c: PathCounts, calls: Int): Seq[String] = Seq(
    (c.yields >= calls) -> s"at least one yield per call (${c.yields} for $calls calls)",
    (c.shuffleReduces + c.shuffleMerges == 0) -> "no shuffle path",
    (c.spills == 0) -> "no spill",
  ).collect { case (false, what) => s"explore expects $what" }
}

/** The UC10 skew join, census and plasticc pipelines with a storage budget
  * below what they store, so the storage service spills chunks to parquet
  * and reads them back; census exercises operator fusion and UC10 the
  * broadcast merge. Fewer chunks and Spark jobs per pass than `Tpch`.
  */
object EtlSpill extends Workload {
  val name = "etl_spill"
  val sf = 0.001
  val customers = 2000L
  val config: EngineConfig = EngineConfig(
    chunkSizeLimit = 256L << 10, treeReduceThreshold = 256L << 10, broadcastThreshold = 128L << 10,
    memoryBudget = 64L << 10)
  // Short passes: a second warm-up pass brings the JVM closer to steady state.
  override def warmupPasses: Int = 2
  def params: Seq[(String, String)] = Seq(
    "sf" -> sf.toString, "uc10_customers" -> customers.toString,
    "pipelines" -> "uc10,census,plasticc",
    "chunk_size_limit" -> config.chunkSizeLimit.toString,
    "tree_reduce_threshold" -> config.treeReduceThreshold.toString,
    "broadcast_threshold" -> config.broadcastThreshold.toString,
    "memory_budget" -> config.memoryBudget.toString)

  def setup(spark: SparkSession, seed: Long): Inputs = {
    val s = seed * 1000
    val uc10 = Uc10.Inputs(
      cache(SynthData.transactions(spark, sf, customers, seed = s + 8)),
      cache(SynthData.uc10Customers(spark, customers, seed = s + 9)))
    val census = cache(SynthData.censusLike(spark, sf, s + 10))
    val plasticc = cache(SynthData.plasticcLike(spark, sf, s + 11))
    val views = Seq("tx" -> uc10.transactions, "cust" -> uc10.customers,
      "census" -> census, "plasticc" -> plasticc)
    views.foreach { case (n, df) => df.createOrReplaceTempView(n) }
    val refs = Seq(
      new SqlReference(spark, Uc10.referenceSql, _ => Uc10.referenceSql, views.take(2)),
      new SqlReference(spark, Census.referenceSql, _ => Census.referenceSql, Seq(views(2))),
      new SqlReference(spark, Plasticc.referenceSql, _ => Plasticc.referenceSql, Seq(views(3))))
    new Inputs {
      def calls(e: Engine): Vector[Call] = Vector(
        Call("uc10", e => Uc10.pipeline(e, uc10), refs(0).check),
        Call("census", e => Census.pipeline(e, census), refs(1).check),
        Call("plasticc", e => Plasticc.pipeline(e, plasticc), refs(2).check))
      def floor(): Unit = refs.foreach(_.run())
      def release(): Unit = views.foreach(_._2.unpersist(true))
    }
  }

  def pathCheck(c: PathCounts, calls: Int): Seq[String] = Seq(
    (c.spills > 0) -> "spills",
    (c.broadcastMerges >= 1) -> "a broadcast merge",
  ).collect { case (false, what) => s"etl_spill expects $what per pass" }
}
