package perfbench

/** The benchmark's own arithmetic, kept free of Spark so it can be tested
  * on synthetic inputs.
  */
object Stats {

  /** Percentiles a timing may be reported at, highest last. */
  val Percentiles: Seq[Double] = Seq(50, 75, 90, 95, 99)

  /** Samples a percentile needs beyond it before it is reported. */
  val MinTail = 10

  def median(xs: Seq[Double]): Double = percentile(xs, 50)

  /** Linearly interpolated percentile (`p` in 0..100) of a non-empty sample. */
  def percentile(xs: Seq[Double], p: Double): Double = {
    require(xs.nonEmpty, "percentile of an empty sample")
    val s = xs.sorted
    val pos = p / 100 * (s.size - 1)
    val lo = math.floor(pos).toInt
    val hi = math.min(lo + 1, s.size - 1)
    s(lo) + (pos - lo) * (s(hi) - s(lo))
  }

  /** Number of samples strictly beyond the `p`-th percentile of `n` samples. */
  def samplesBeyond(n: Int, p: Double): Int = math.floor(n * (100 - p) / 100 + 1e-9).toInt

  /** Highest reportable percentile: the largest of `Percentiles` that has at
    * least `MinTail` samples beyond it, if any.
    */
  def tailPercentile(n: Int): Option[Double] =
    Percentiles.filter(p => samplesBeyond(n, p) >= MinTail).lastOption

  /** Time of a span not covered by its children (the children are assumed
    * to run inside the span, one after another).
    */
  def selfTime(span: Double, children: Seq[Double]): Double = span - children.sum

  /** Share of attempted calls that threw or failed their check. */
  def failedFrac(outcomes: Seq[Boolean]): Double = {
    require(outcomes.nonEmpty, "no calls attempted")
    outcomes.count(ok => !ok).toDouble / outcomes.size
  }
}

/** Assigns a Spark job to the engine layer whose code submitted it. */
object Attribution {

  val Put = "storage.put"
  val Spill = "storage.spill"
  val SourceIndex = "tile.source_index"
  val Reindex = "tile.reindex"
  val Collect = "collect"
  val Other = "other"

  private val frameworkPrefixes = Seq("org.apache.spark.", "scala.", "java.", "jdk.", "sun.")

  /** Layer of a job from the long call site of its stages (the stack below
    * the Spark action, one frame per line). The first frame outside Spark,
    * Scala and the JDK names the caller.
    */
  def layerOf(callSite: String): String = {
    val frame = callSite.linesIterator.map(_.trim).find(l =>
      l.nonEmpty && !frameworkPrefixes.exists(l.startsWith)).getOrElse("")
    if (frame.startsWith("repro.storage.StorageService.put")) Put
    else if (frame.startsWith("repro.storage.StorageService.evictIfNeeded")) Spill
    else if (frame.startsWith("repro.core.Engine") && frame.contains("tileSource")) SourceIndex
    else if (frame.startsWith("repro.core.Reindex")) Reindex
    else if (frame.startsWith("perfbench.")) Collect
    else Other
  }
}
