package repro.coverage

import repro.SparkSpec
import repro.core.{Engine, EngineConfig}

/** Table V reproduction: the 30 asv-style cases run for real against the
  * engine; facade coverage rates must land on the paper's numbers.
  */
class CoverageSpec extends SparkSpec {

  private lazy val engine = new Engine(spark, EngineConfig(
    chunkSizeLimit = 16 << 10, treeReduceThreshold = 16 << 10,
    broadcastThreshold = 8 << 10))
  private lazy val ctx = ApiCoverage.makeCtx(spark, engine)

  private lazy val outcomes = ApiCoverage.execute(ctx)
  private lazy val results: Map[String, Vector[(ApiCase, ApiCoverage.CaseResult)]] =
    ApiCoverage.facades.map(f => f.name -> ApiCoverage.evaluate(f, outcomes)).toMap

  test("exactly 30 cases across groupby/merge/pivot/indexing") {
    assert(ApiCoverage.cases.size == 30)
    val cats = ApiCoverage.cases.groupBy(_.category).view.mapValues(_.size).toMap
    assert(cats("groupby") >= 12 && cats("merge") >= 9 && cats("pivot") >= 3)
  }

  test("case ids are unique and dense") {
    assert(ApiCoverage.cases.map(_.id).sorted == (1 to 30).toVector)
  }

  // Every case the Xorbits facade supports must actually PASS (real
  // execution + reference check), not just be "supported on paper".
  ApiCoverage.cases.filter(c => !c.features.contains(repro.sim.ApiFeature.GroupApplyArbitrary))
    .foreach { c =>
      test(f"case ${c.id}%02d [${c.category}] ${c.name} passes on the engine") {
        val res = results("Xorbits").find(_._1.id == c.id).get._2
        assert(res == ApiCoverage.Pass, s"case ${c.id}: $res")
      }
    }

  test("Table V: Xorbits coverage = 96.7%") {
    assert(math.abs(ApiCoverage.coverageRate(ApiCoverage.facades(0), outcomes) - 96.7) < 0.1)
  }

  test("Table V: Modin coverage = 96.7%") {
    val passes = results("Modin").count(_._2 == ApiCoverage.Pass)
    assert(passes == 29, s"Modin passes $passes")
  }

  test("Table V: Dask coverage = 46.7%") {
    val passes = results("Dask").count(_._2 == ApiCoverage.Pass)
    assert(passes == 14, s"Dask passes $passes")
  }

  test("Table V: PySpark coverage = 36.7%") {
    val passes = results("PySpark").count(_._2 == ApiCoverage.Pass)
    assert(passes == 11, s"PySpark passes $passes")
  }

  test("unsupported cases are reported as Unsupported, not Failed") {
    results.values.flatten.foreach { case (c, r) =>
      r match {
        case ApiCoverage.Failed(err) => fail(s"case ${c.id} failed at runtime: $err")
        case _                       => ()
      }
    }
  }

  test("PySpark's missing set is a superset of Dask's (paper ordering)") {
    val dask = ApiCoverage.facades.find(_.name == "Dask").get.missing
    val py = ApiCoverage.facades.find(_.name == "PySpark").get.missing
    assert(dask.subsetOf(py))
  }
}
