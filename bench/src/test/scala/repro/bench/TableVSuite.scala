package repro.bench

import repro.core.{Engine, EngineConfig}
import repro.coverage.ApiCoverage

/** Paper Table V: API coverage rate on the 30 asv-derived cases. */
class TableVSuite extends BenchBase {

  private val paper = Map("Xorbits" -> 96.7, "Modin" -> 96.7, "Dask" -> 46.7, "PySpark" -> 36.7)

  /** Each runnable case executed once; both tables derive from it. */
  private lazy val outcomes = {
    val engine = new Engine(spark, EngineConfig(
      chunkSizeLimit = 16 << 10, treeReduceThreshold = 16 << 10,
      broadcastThreshold = 8 << 10))
    try ApiCoverage.execute(ApiCoverage.makeCtx(spark, engine)) finally engine.reset()
  }

  test("Table V: coverage rate per framework (paper vs measured)") {
    val rates = ApiCoverage.facades.map(f => f.name -> ApiCoverage.coverageRate(f, outcomes)).toMap
    printTable(
      "Table V — API coverage rate % (paper | ours)",
      Seq("framework", "paper", "ours"),
      Vector("Xorbits", "Modin", "Dask", "PySpark").map(n =>
        Seq(n, paper(n).toString, fmt(rates(n)))))
    paper.foreach { case (n, want) =>
      assert(math.abs(rates(n) - want) < 0.1, s"$n: ${rates(n)} vs $want")
    }
  }

  test("Table V detail: per-case outcome matrix") {
    val results = ApiCoverage.facades.map(f => f.name -> ApiCoverage.evaluate(f, outcomes).toMap).toMap
    val rows = ApiCoverage.cases.map { c =>
      Seq(f"${c.id}%02d", c.category, c.name.take(34)) ++
        ApiCoverage.facades.map(f => results(f.name)(c) match {
          case ApiCoverage.Pass        => "pass"
          case ApiCoverage.Unsupported => "unsup"
          case ApiCoverage.Failed(_)   => "FAIL"
        })
    }
    printTable("Table V detail — case × framework",
      Seq("id", "cat", "case") ++ ApiCoverage.facades.map(_.name), rows)
    // No runtime failures anywhere — only pass or unsupported.
    assert(rows.forall(r => !r.contains("FAIL")))
  }
}
