package perfbench

import scala.collection.mutable

import org.apache.spark.SparkContext
import org.apache.spark.perfbench.Bus
import org.apache.spark.scheduler._
import org.apache.spark.sql.execution.SQLExecution
import org.apache.spark.sql.execution.ui.{SparkListenerSQLExecutionEnd, SparkListenerSQLExecutionStart}

/** Totals of the Spark work done by measured calls. */
final case class SparkTotals(
    jobs: Long,
    stages: Long,
    tasks: Long,
    emptyTasks: Long,
    /** Job wall seconds per `Attribution` layer. */
    jobS: Map[String, Double],
    taskRunS: Double,
    taskOverheadS: Double,
) {
  def -(o: SparkTotals): SparkTotals = SparkTotals(
    jobs - o.jobs, stages - o.stages, tasks - o.tasks, emptyTasks - o.emptyTasks,
    jobS.map { case (k, v) => k -> (v - o.jobS.getOrElse(k, 0.0)) },
    taskRunS - o.taskRunS, taskOverheadS - o.taskOverheadS)

  def totalJobS: Double = jobS.values.sum
}

/** Counts the Spark jobs, stages and tasks submitted while the submitting
  * thread's `Phase.Key` local property reads `Phase.Measured`, assigns each
  * job to a layer by its call site, and keeps a running total of cached
  * RDD block bytes (memory plus Spark disk) with its peak.
  */
final class SparkCounters(sc: SparkContext) extends SparkListener {

  private val execSite = mutable.Map[Long, String]()
  private val stageOwner = mutable.Set[Int]()
  private val jobStart = mutable.Map[Int, (Long, String)]()
  private var jobs, stages, tasks, emptyTasks = 0L
  private val jobS = mutable.Map[String, Double]().withDefaultValue(0.0)
  private var taskRunMs, taskOverheadMs = 0L
  /** Bytes per cached block, keyed by (RDD id, partition). */
  private val blocks = mutable.Map[(Int, Int), Long]()
  private var cachedBytes, peakBytes = 0L
  /** A few call sites of unattributed jobs, to close gaps in the mapping. */
  val otherSites: mutable.LinkedHashMap[String, Int] = mutable.LinkedHashMap.empty

  sc.addSparkListener(this)

  override def onOtherEvent(e: SparkListenerEvent): Unit = e match {
    case s: SparkListenerSQLExecutionStart => synchronized { execSite(s.executionId) = s.details }
    case s: SparkListenerSQLExecutionEnd   => synchronized { execSite.remove(s.executionId) }
    case _                                 =>
  }

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val props = Option(e.properties)
    if (props.map(_.getProperty(Phase.Key)).orNull == Phase.Measured) {
      // SQL jobs may be submitted from Spark's own threads (adaptive query
      // stages), so their call site is the one of the SQL execution.
      val site = props.flatMap(p => Option(p.getProperty(SQLExecution.EXECUTION_ID_KEY)))
        .flatMap(id => execSite.get(id.toLong))
        .getOrElse(e.stageInfos.maxByOption(_.stageId).map(_.details).getOrElse(""))
      val layer = Attribution.layerOf(site)
      if (layer == Attribution.Other) {
        val top = site.linesIterator.take(3).mkString(" | ")
        if (otherSites.contains(top) || otherSites.size < 8)
          otherSites(top) = otherSites.getOrElse(top, 0) + 1
      }
      jobStart(e.jobId) = (e.time, layer)
      stageOwner ++= e.stageIds
      jobs += 1
    }
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    jobStart.remove(e.jobId).foreach { case (t0, layer) => jobS(layer) += (e.time - t0) / 1e3 }
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    if (stageOwner.contains(e.stageInfo.stageId)) stages += 1
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    if (stageOwner.contains(e.stageId) && e.taskInfo != null) {
      tasks += 1
      val m = e.taskMetrics
      val runMs = if (m == null) 0L else m.executorRunTime
      taskRunMs += runMs
      taskOverheadMs += math.max(0L, e.taskInfo.duration - runMs)
      if (m != null && m.inputMetrics.recordsRead == 0 && m.shuffleReadMetrics.recordsRead == 0)
        emptyTasks += 1
    }
  }

  override def onBlockUpdated(e: SparkListenerBlockUpdated): Unit = synchronized {
    val info = e.blockUpdatedInfo
    info.blockId.asRDDId.foreach { id =>
      val key = (id.rddId, id.splitIndex)
      cachedBytes -= blocks.getOrElse(key, 0L)
      if (info.storageLevel.isValid) {
        blocks(key) = info.memSize + info.diskSize
        cachedBytes += info.memSize + info.diskSize
      } else blocks.remove(key)
      peakBytes = math.max(peakBytes, cachedBytes)
    }
  }

  /** Unpersisting an RDD drops its blocks without a block update per block. */
  override def onUnpersistRDD(e: SparkListenerUnpersistRDD): Unit = synchronized {
    blocks.keys.filter(_._1 == e.rddId).toSeq.foreach(k => cachedBytes -= blocks.remove(k).get)
  }

  /** Wait for all posted events, then read the totals. */
  def totals(): SparkTotals = {
    Bus.drain(sc)
    synchronized(SparkTotals(jobs, stages, tasks, emptyTasks, jobS.toMap,
      taskRunMs / 1e3, taskOverheadMs / 1e3))
  }

  /** Wait for all posted events, restart the peak from the current total
    * and return that total.
    */
  def resetPeak(): Long = { Bus.drain(sc); synchronized { peakBytes = cachedBytes; cachedBytes } }

  /** Peak cached bytes since `resetPeak`, after all posted events. */
  def peakCachedBytes(): Long = { Bus.drain(sc); synchronized(peakBytes) }
}

/** Tags the Spark jobs a thread submits with the benchmark phase. */
object Phase {
  val Key = "perfbench.phase"
  val Measured = "measured"

  def apply[T](sc: SparkContext, phase: String)(f: => T): T = {
    val prev = sc.getLocalProperty(Key)
    sc.setLocalProperty(Key, phase)
    try f finally sc.setLocalProperty(Key, prev)
  }
}
