package jobs

import org.apache.spark.sql.SparkSession

import repro.core.{Engine, EngineConfig}
import repro.coverage.ApiCoverage

/** spark-submit entrypoint for paper Table V: runs the 30 API-coverage
  * cases against every framework facade and prints the rates.
  *
  * Usage: spark-submit --class jobs.CoverageJob repro.jar
  */
object CoverageJob {
  def main(args: Array[String]): Unit = {
    val spark = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("api-coverage").getOrCreate()
    val engine = new Engine(spark, EngineConfig(
      chunkSizeLimit = 16 << 10, treeReduceThreshold = 16 << 10,
      broadcastThreshold = 8 << 10))
    val outcomes = ApiCoverage.execute(ApiCoverage.makeCtx(spark, engine))
    println("Table V — API coverage rate")
    ApiCoverage.facades.foreach { f =>
      println(f"${f.name}%-10s ${ApiCoverage.coverageRate(f, outcomes)}%6.1f %%")
    }
    engine.reset()
    spark.stop()
  }
}
