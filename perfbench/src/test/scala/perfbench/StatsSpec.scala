package perfbench

import org.apache.spark.sql.Row
import org.scalatest.funsuite.AnyFunSuite

/** The benchmark's own arithmetic on synthetic inputs: no Spark session. */
class StatsSpec extends AnyFunSuite {

  test("percentile interpolates linearly between order statistics") {
    val xs = Seq(4.0, 1.0, 3.0, 2.0, 5.0)
    assert(Stats.median(xs) == 3.0)
    assert(Stats.percentile(xs, 0) == 1.0)
    assert(Stats.percentile(xs, 100) == 5.0)
    assert(Stats.percentile(xs, 75) == 4.0)
    assert(Stats.percentile(Seq(1.0, 2.0), 50) == 1.5)
    assert(Stats.percentile(Seq(7.0), 99) == 7.0)
  }

  test("a percentile is reported only with at least ten samples beyond it") {
    assert(Stats.samplesBeyond(40, 75) == 10)
    assert(Stats.samplesBeyond(39, 75) == 9)
    assert(Stats.tailPercentile(19).isEmpty)
    assert(Stats.tailPercentile(20).contains(50.0))
    assert(Stats.tailPercentile(39).contains(50.0))
    assert(Stats.tailPercentile(40).contains(75.0))
    assert(Stats.tailPercentile(100).contains(90.0))
    assert(Stats.tailPercentile(200).contains(95.0))
    assert(Stats.tailPercentile(1000).contains(99.0))
  }

  test("self time is the span minus the child spans inside it") {
    assert(Stats.selfTime(10.0, Seq(7.5)) == 2.5)
    assert(Stats.selfTime(4.0, Seq(1.0, 1.0, 1.5)) == 0.5)
    assert(Stats.selfTime(3.0, Seq.empty) == 3.0)
  }

  test("failed_frac counts throws and failed checks against calls attempted") {
    assert(Stats.failedFrac(Seq(true, true, true, true)) == 0.0)
    assert(Stats.failedFrac(Seq(true, false, true, false)) == 0.5)
    assert(Stats.failedFrac(Seq(false)) == 1.0)
    assertThrows[IllegalArgumentException](Stats.failedFrac(Seq.empty))
  }

  private def site(frames: String*) = frames.mkString("\n")

  test("a job is attributed to the first frame below Spark, Scala and the JDK") {
    assert(Attribution.layerOf(site(
      "org.apache.spark.sql.classic.Dataset.count(Dataset.scala:1500)",
      "repro.storage.StorageService.put(StorageService.scala:68)",
      "repro.core.Engine.runSubtask(TilingEngine.scala:520)",
      "perfbench.Runner.pass(Runner.scala:80)")) == Attribution.Put)
    assert(Attribution.layerOf(site(
      "repro.storage.StorageService.evictIfNeeded(StorageService.scala:112)",
      "repro.storage.StorageService.put(StorageService.scala:75)")) == Attribution.Spill)
    assert(Attribution.layerOf(site(
      "org.apache.spark.rdd.RDD.zipWithIndex(RDD.scala:1400)",
      "repro.core.Engine.$anonfun$tileSource$1(TilingEngine.scala:110)",
      "scala.collection.mutable.HashMap.getOrElseUpdate(HashMap.scala:454)")) == Attribution.SourceIndex)
    assert(Attribution.layerOf(site(
      "repro.core.Reindex$.withRowId(TilingEngine.scala:600)",
      "repro.core.Engine.$anonfun$tileSort$2(TilingEngine.scala:330)")) == Attribution.Reindex)
    assert(Attribution.layerOf(site(
      "org.apache.spark.sql.classic.Dataset.collect(Dataset.scala:1200)",
      "perfbench.Runner.$anonfun$pass$2(Runner.scala:77)")) == Attribution.Collect)
    assert(Attribution.layerOf(site(
      "org.apache.spark.sql.classic.DataFrameReader.parquet(DataFrameReader.scala:57)",
      "repro.storage.StorageService.get(StorageService.scala:89)")) == Attribution.Other)
    assert(Attribution.layerOf("") == Attribution.Other)
  }

  test("result checks accept reordered rows and tolerance, reject wrong rows") {
    val want = Seq(Row("a", 1L, 2.0), Row("b", 2L, 3.0))
    Check.sameSet(Seq(Row("b", 2L, 3.0 + 1e-9), Row("a", 1L, 2.0)), want)
    assertThrows[AssertionError](Check.sameSet(Seq(Row("a", 1L, 2.0)), want))
    assertThrows[AssertionError](Check.sameSet(Seq(Row("a", 1L, 2.0), Row("b", 2L, 3.1)), want))
    assertThrows[AssertionError](Check.samePositional(want.reverse, want))
    Check.sameSorted(Seq(Row(1, "x"), Row(1, "y"), Row(2, "z")),
      Seq(Row(1, "y"), Row(1, "x"), Row(2, "z")), keyCols = Seq(0))
  }
}
