package repro.coverage

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

import repro.core.AggSpec._
import repro.core.{Engine, EngineConfig, XFrame}
import repro.sim.ApiFeature
import repro.sim.ApiFeature._

/** The API-coverage benchmark (paper §VI-E, Table V): 30 cases modeled
  * on the pandas asv suite, focused on groupby / merge / pivot — the
  * operators the Auto-Suggest notebook corpus found most popular.
  *
  * Every case is *runnable*: it executes real operations through the
  * engine and verifies the result against a plain Spark reference. A
  * framework facade passes a case iff it supports all of the case's
  * features (facade missing-sets model the documented gaps: Dask and
  * pandas-on-Spark merges don't sort join keys, pandas-on-Spark lacks
  * NamedAgg / friendly UDF aggregation, neither supports positional
  * iloc after shape-changing ops, …) and the execution returns the
  * reference result.
  */
final case class ApiCase(
    id: Int,
    category: String,
    name: String,
    features: Set[ApiFeature],
    run: CovCtx => Unit,
)

/** Shared small inputs for the coverage cases. */
final case class CovCtx(engine: Engine, spark: SparkSession, factsDf: DataFrame, dimsDf: DataFrame) {
  lazy val facts: XFrame = XFrame.source(engine, "cov_facts", factsDf)
  lazy val dims: XFrame = XFrame.source(engine, "cov_dims", dimsDf)

  /** Assert two small DataFrames are row-set equal (order-free);
    * numeric cells compare within a relative tolerance — summation
    * orders differ between the chunked engine and the Spark reference.
    */
  def assertSame(got: DataFrame, want: DataFrame): Unit = {
    def cells(df: DataFrame): Array[Seq[Either[String, Double]]] =
      df.collect().map(_.toSeq.map {
        case null      => Left("∅"): Either[String, Double]
        case d: Double => Right(d)
        case f: Float  => Right(f.toDouble)
        case i: Int    => Right(i.toDouble)
        case l: Long   => Right(l.toDouble)
        case x         => Left(x.toString)
      }).sortBy(_.map {
        case Left(s)  => s
        case Right(d) => f"$d%018.3f"
      }.mkString("|"))
    val g = cells(got); val w = cells(want)
    require(g.length == w.length, s"row count mismatch: ${g.length} vs ${w.length}")
    g.zip(w).zipWithIndex.foreach { case ((a, b), i) =>
      val ok = a.size == b.size && a.zip(b).forall {
        case (Left(x), Left(y))   => x == y
        case (Right(x), Right(y)) => math.abs(x - y) <= 1e-6 * math.max(1.0, math.max(math.abs(x), math.abs(y)))
        case _                    => false
      }
      require(ok, s"row $i mismatch:\n got  $a\n want $b")
    }
  }
}

object ApiCoverage {

  /** A framework facade: which features it misses. Supported cases
    * delegate to the real engine (all facades share the execution
    * substrate; only API surface differs — exactly the paper's setup
    * where all pandas-like systems wrap the same backend semantics).
    */
  final case class Facade(name: String, missing: Set[ApiFeature])

  val facades: Vector[Facade] = Vector(
    Facade("Xorbits", Set(GroupApplyArbitrary)),
    Facade("Modin", Set(GroupApplyArbitrary)),
    Facade("Dask", Set(GroupApplyArbitrary, SortedMergeKeys, PositionalIloc, PivotTable,
      SeriesIsin, GroupNUnique, OrderedIndexSemantics)),
    Facade("PySpark", Set(GroupApplyArbitrary, SortedMergeKeys, PositionalIloc, PivotTable,
      SeriesIsin, GroupNUnique, OrderedIndexSemantics, NamedAgg, GroupUdfAgg)),
  )

  def makeCtx(spark: SparkSession, engine: Engine, rows: Long = 4000, seed: Long = 17): CovCtx = {
    val facts = spark.range(rows).select(
      (rand(seed) * 50 + 1).cast("long") as "k",
      round(rand(seed + 1) * 100, 3) as "v",
      round(rand(seed + 2) * 10, 3) as "w",
      element_at(array(lit("a"), lit("b"), lit("c"), lit("d")),
        (rand(seed + 3) * 4 + 1).cast("int")) as "g",
    )
    val dims = spark.range(1, 41).select( // keys 41..50 unmatched on purpose
      col("id") as "k",
      round(rand(seed + 4) * 5, 3) as "d",
      element_at(array(lit("x"), lit("y")), (rand(seed + 5) * 2 + 1).cast("int")) as "cat",
    )
    CovCtx(engine, spark, facts, dims)
  }

  private def gb(c: CovCtx)(want: DataFrame, specs: repro.core.AggSpec*): Unit =
    c.assertSame(c.facts.groupby("k").agg(specs: _*).toDF(), want)

  // 30 cases: 13 groupby, 10 merge, 4 pivot, 3 indexing/order.
  val cases: Vector[ApiCase] = Vector(
    ApiCase(1, "groupby", "sum", Set.empty,
      c => gb(c)(c.factsDf.groupBy("k").agg(sum("v") as "sv"), SumAgg("v", "sv"))),
    ApiCase(2, "groupby", "mean", Set.empty,
      c => gb(c)(c.factsDf.groupBy("k").agg(avg("v") as "mv"), MeanAgg("v", "mv"))),
    ApiCase(3, "groupby", "count", Set.empty,
      c => gb(c)(c.factsDf.groupBy("k").agg(count(lit(1)) as "n"), CountAgg("n"))),
    ApiCase(4, "groupby", "min-max", Set.empty,
      c => gb(c)(c.factsDf.groupBy("k").agg(min("v") as "lo", max("v") as "hi"),
        MinAgg("v", "lo"), MaxAgg("v", "hi"))),
    ApiCase(5, "groupby", "multi-column keys", Set.empty,
      c => c.assertSame(
        c.facts.groupby("k", "g").agg(SumAgg("v", "sv")).toDF(),
        c.factsDf.groupBy("k", "g").agg(sum("v") as "sv"))),
    ApiCase(6, "groupby", "variance", Set.empty,
      c => c.assertSame(
        c.facts.groupby("g").agg(VarAgg("v", "var_v")).toDF(),
        c.factsDf.groupBy("g").agg(var_samp("v") as "var_v"))),
    ApiCase(7, "groupby", "nunique", Set(GroupNUnique),
      c => c.assertSame(
        c.facts.groupby("g").agg(NUniqueAgg("k", "nk")).toDF(),
        c.factsDf.groupBy("g").agg(countDistinct("k") as "nk"))),
    ApiCase(8, "groupby", "NamedAgg multiple outputs", Set(NamedAgg),
      c => gb(c)(c.factsDf.groupBy("k").agg(sum("v") as "total", avg("w") as "mean_w"),
        SumAgg("v", "total"), MeanAgg("w", "mean_w"))),
    ApiCase(9, "groupby", "NamedAgg same col twice", Set(NamedAgg),
      c => gb(c)(c.factsDf.groupBy("k").agg(min("v") as "v_min", max("v") as "v_max"),
        MinAgg("v", "v_min"), MaxAgg("v", "v_max"))),
    ApiCase(10, "groupby", "udf-style derived agg", Set(GroupUdfAgg),
      c => c.assertSame(
        c.facts.groupby("g").agg(SumAgg("v", "sv"), CountAgg("n"))
          .withColumn("range_norm", col("sv") / col("n")).select("g", "range_norm").toDF(),
        c.factsDf.groupBy("g").agg((sum("v") / count(lit(1))) as "range_norm")
          .select("g", "range_norm"))),
    ApiCase(11, "groupby", "filtered groupby (index preserved)", Set(OrderedIndexSemantics),
      c => c.assertSame(
        c.facts.filter(col("v") > 50).groupby("g").agg(SumAgg("v", "sv")).toDF(),
        c.factsDf.filter(col("v") > 50).groupBy("g").agg(sum("v") as "sv"))),
    ApiCase(12, "groupby", "groupby on computed key", Set(ComputedKeyGroupby),
      c => c.assertSame(
        c.facts.withColumn("kb", pmod(col("k"), lit(7))).groupby("kb")
          .agg(SumAgg("v", "sv")).toDF(),
        c.factsDf.withColumn("kb", pmod(col("k"), lit(7))).groupBy("kb").agg(sum("v") as "sv"))),
    ApiCase(13, "groupby", "global aggregate", Set.empty,
      c => c.assertSame(
        c.facts.groupby().agg(SumAgg("v", "sv"), CountAgg("n")).toDF(),
        c.factsDf.agg(sum("v") as "sv", count(lit(1)) as "n"))),
    ApiCase(14, "merge", "inner", Set.empty,
      c => c.assertSame(
        c.facts.merge(c.dims, Seq("k")).toDF(),
        c.factsDf.join(c.dimsDf, Seq("k"), "inner"))),
    ApiCase(15, "merge", "left (keeps left row order)", Set(OrderedIndexSemantics),
      c => c.assertSame(
        c.facts.merge(c.dims, Seq("k"), "left").toDF(),
        c.factsDf.join(c.dimsDf, Seq("k"), "left"))),
    ApiCase(16, "merge", "semi (isin filter)", Set(SeriesIsin),
      c => c.assertSame(
        c.facts.merge(c.dims, Seq("k"), "leftsemi").toDF(),
        c.factsDf.join(c.dimsDf, Seq("k"), "leftsemi"))),
    ApiCase(17, "merge", "anti", Set(SeriesIsin),
      c => c.assertSame(
        c.facts.merge(c.dims, Seq("k"), "leftanti").toDF(),
        c.factsDf.join(c.dimsDf, Seq("k"), "leftanti"))),
    ApiCase(18, "merge", "sorted result keys", Set(SortedMergeKeys),
      c => {
        val got = c.facts.merge(c.dims, Seq("k")).sortValues("k").toDF()
        val ks = got.select("k").collect().map(_.getLong(0))
        require(ks.sameElements(ks.sorted), "join keys not sorted")
      }),
    ApiCase(19, "merge", "merge then groupby (sorted keys)", Set(OrderedIndexSemantics),
      c => c.assertSame(
        c.facts.merge(c.dims, Seq("k")).groupby("cat").agg(SumAgg("v", "sv")).toDF(),
        c.factsDf.join(c.dimsDf, Seq("k")).groupBy("cat").agg(sum("v") as "sv"))),
    ApiCase(20, "merge", "suffix collision", Set.empty,
      c => {
        val dims2 = c.dims.rename("d" -> "v") // collides with facts.v
        val got = c.facts.merge(dims2, Seq("k")).toDF()
        require(got.columns.contains("v_x") && got.columns.contains("v_y"),
          s"expected _x/_y suffixes, got ${got.columns.mkString(",")}")
      }),
    ApiCase(21, "merge", "multi-key", Set.empty,
      c => {
        val left = c.facts.withColumn("k2", pmod(col("k"), lit(3)))
        val rightDf = c.dimsDf.withColumn("k2", pmod(col("k"), lit(3)))
        val right = XFrame.source(c.engine, "cov_dims_mk", rightDf)
        c.assertSame(
          left.merge(right, Seq("k", "k2")).toDF(),
          c.factsDf.withColumn("k2", pmod(col("k"), lit(3)))
            .join(rightDf, Seq("k", "k2"), "inner"))
      }),
    ApiCase(22, "merge", "self merge on key (aligned index)", Set(OrderedIndexSemantics),
      c => {
        val agg = c.facts.groupby("k").agg(MeanAgg("v", "vbar"))
        c.assertSame(
          c.facts.merge(agg, Seq("k")).filter(col("v") > col("vbar"))
            .select("k", "v").toDF(),
          c.factsDf.join(c.factsDf.groupBy("k").agg(avg("v") as "vbar"), Seq("k"))
            .filter(col("v") > col("vbar")).select("k", "v"))
      }),
    ApiCase(23, "merge", "sorted multi-key result", Set(SortedMergeKeys),
      c => {
        val got = c.facts.merge(c.dims, Seq("k")).sortValues("k", "g").toDF()
        val pairs = got.select("k", "g").collect().map(r => (r.getLong(0), r.getString(1)))
        require(pairs.sameElements(pairs.sorted), "result not sorted by (k, g)")
      }),
    ApiCase(24, "indexing", "iloc after filter", Set(PositionalIloc),
      c => {
        val got = c.facts.filter(col("v") > 50).iloc(10).toDF().collect()
        val want = c.factsDf.filter(col("v") > 50).collect()(10)
        require(got.length == 1 && got(0).toSeq == want.toSeq,
          s"iloc mismatch: ${got.toVector} vs $want")
      }),
    ApiCase(25, "indexing", "iloc slice", Set(PositionalIloc),
      c => {
        val got = c.facts.filter(col("v") > 20).ilocRange(5, 15).toDF().collect()
        val want = c.factsDf.filter(col("v") > 20).collect().slice(5, 15)
        require(got.length == want.length && got.map(_.toSeq).sameElements(want.map(_.toSeq)),
          "iloc slice mismatch")
      }),
    ApiCase(26, "indexing", "head", Set(PositionalIloc),
      c => {
        val got = c.facts.head(7).toDF().collect()
        val want = c.factsDf.collect().take(7)
        require(got.map(_.toSeq).sameElements(want.map(_.toSeq)), "head mismatch")
      }),
    ApiCase(27, "pivot", "pivot_table sum", Set(PivotTable),
      c => c.assertSame(
        c.facts.pivotTable("k", "g", "v", "sum").toDF(),
        c.factsDf.groupBy("k").pivot("g").sum("v"))),
    ApiCase(28, "pivot", "pivot_table mean", Set(PivotTable),
      c => c.assertSame(
        c.facts.pivotTable("k", "g", "v", "mean").toDF(),
        c.factsDf.groupBy("k").pivot("g").avg("v"))),
    ApiCase(29, "pivot", "pivot_table count", Set(PivotTable),
      c => c.assertSame(
        c.facts.pivotTable("g", "k", "w", "count").toDF(),
        c.factsDf.groupBy("g").pivot("k").count())),
    ApiCase(30, "groupby", "groupby.apply arbitrary function", Set(GroupApplyArbitrary),
      _ => throw new UnsupportedOperationException(
        "arbitrary cross-chunk groupby.apply is unsupported")),
  )

  sealed trait CaseResult
  case object Pass extends CaseResult
  case object Unsupported extends CaseResult
  final case class Failed(err: String) extends CaseResult

  /** Whether the facade offers every API feature the case needs. */
  private def supports(facade: Facade, cse: ApiCase): Boolean =
    (cse.features intersect facade.missing).isEmpty

  /** Execute every case some facade supports, once, on the shared
    * engine: the outcome per case id. All facades share the execution
    * substrate, so one run serves them all.
    */
  def execute(ctx: CovCtx): Map[Int, CaseResult] =
    cases.filter(cse => facades.exists(supports(_, cse))).map { cse =>
      cse.id -> (try { cse.run(ctx); Pass } catch { case e: Throwable => Failed(e.getMessage) })
    }.toMap

  /** One facade's per-case results, derived from the shared outcomes. */
  def evaluate(facade: Facade, outcomes: Map[Int, CaseResult]): Vector[(ApiCase, CaseResult)] =
    cases.map(cse => (cse, if (supports(facade, cse)) outcomes(cse.id) else Unsupported))

  /** Coverage rate (%) for one facade. */
  def coverageRate(facade: Facade, outcomes: Map[Int, CaseResult]): Double = {
    val rs = evaluate(facade, outcomes)
    100.0 * rs.count(_._2 == Pass) / rs.size
  }
}
