package perfbench

import org.apache.spark.sql.Row

/** Result comparison for calls whose reference was computed once per run. */
object Check {

  /** Numeric cells compare within this share of their magnitude (floor 1),
    * the tolerance `repro.Oracle.assertEquivalentApprox` uses by default.
    */
  val RelTol = 1e-6

  private def cell(v: Any): Either[String, Double] = v match {
    case null                     => Left("null")
    case d: Double                => Right(d)
    case f: Float                 => Right(f.toDouble)
    case bd: java.math.BigDecimal => Right(bd.doubleValue)
    case n: java.lang.Number      => Right(n.doubleValue)
    case x                        => Left(x.toString)
  }

  private def close(a: Either[String, Double], b: Either[String, Double]): Boolean = (a, b) match {
    case (Right(x), Right(y)) => math.abs(x - y) <= RelTol * math.max(1.0, math.max(math.abs(x), math.abs(y)))
    case _                    => a == b
  }

  private def rowsClose(got: Seq[Row], want: Seq[Row]): Option[String] = {
    if (got.size != want.size) return Some(s"${got.size} rows, expected ${want.size}")
    got.zip(want).zipWithIndex.collectFirst {
      case ((g, w), i) if g.size != w.size || !g.toSeq.map(cell).zip(w.toSeq.map(cell)).forall((close _).tupled) =>
        s"row $i differs: got $g, expected $w"
    }
  }

  private def sortKey(r: Row): String = r.toSeq.map(cell).map {
    case Left(s)  => s
    case Right(d) => f"$d%.4f"
  }.mkString("|")

  /** Same rows in any order (unordered query results). */
  def sameSet(got: Seq[Row], want: Seq[Row]): Unit =
    rowsClose(got.sortBy(sortKey), want.sortBy(sortKey)).foreach(m => throw new AssertionError(m))

  /** Same rows in the same order (positional results: head, iloc). */
  def samePositional(got: Seq[Row], want: Seq[Row]): Unit =
    rowsClose(got, want).foreach(m => throw new AssertionError(m))

  /** Sorted results: the key columns match position by position and the
    * rows match as a set (rows with equal keys may come in any order).
    */
  def sameSorted(got: Seq[Row], want: Seq[Row], keyCols: Seq[Int]): Unit = {
    def keys(rs: Seq[Row]) = rs.map(r => Row.fromSeq(keyCols.map(r.get)))
    samePositional(keys(got), keys(want))
    sameSet(got, want)
  }
}
