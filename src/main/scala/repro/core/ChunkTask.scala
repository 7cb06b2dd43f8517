package repro.core

import org.apache.spark.sql.DataFrame

/** A node of the chunk graph (paper §III-C): one operator application
  * producing one output chunk.
  *
  * Circles in the paper's figures are these tasks; squares (chunks) are
  * the tasks' outputs, identified by the task id in the storage service.
  *
  * @param id      unique id within an engine (also the storage key)
  * @param label   human-readable operator label, e.g. "GroupbyAgg::map"
  * @param stage   map-combine-reduce stage of the task
  * @param index   distributed index (r, c): position of the output chunk
  *                in the logical dataframe (paper Fig 4)
  * @param inputs  upstream tasks whose output chunks this task consumes
  * @param compute pure Catalyst fragment: input chunk DataFrames →
  *                output chunk DataFrame (lazy; materialization happens
  *                only through the storage service)
  * @param narrow  set iff the task is a narrow pipeline (enables
  *                operator-level fusion across adjacent narrow tasks)
  */
final class ChunkTask(
    val id: Long,
    val label: String,
    val stage: Stage,
    val index: (Int, Int),
    val inputs: Vector[ChunkTask],
    val compute: Seq[DataFrame] => DataFrame,
    val narrow: Option[NarrowPipe] = None,
) {
  override def toString: String = s"ChunkTask($id, $label, $stage, $index)"
  override def hashCode(): Int = id.hashCode()
  override def equals(o: Any): Boolean = o match {
    case t: ChunkTask => t.id == id
    case _            => false
  }
}

/** Graph utilities over sets of chunk tasks. */
object ChunkGraph {

  /** All tasks reachable from `targets` through `inputs`, stopping at
    * (and excluding) tasks for which `isMaterialized` holds — those are
    * already chunks in the storage service.
    */
  def closure(targets: Seq[ChunkTask], isMaterialized: ChunkTask => Boolean): Vector[ChunkTask] = {
    val seen = scala.collection.mutable.LinkedHashSet[ChunkTask]()
    def visit(t: ChunkTask): Unit =
      if (!isMaterialized(t) && !seen.contains(t)) {
        seen += t
        t.inputs.foreach(visit)
      }
    targets.foreach(visit)
    seen.toVector
  }

  /** Successor map restricted to the given task set. */
  def successors(tasks: Vector[ChunkTask]): Map[Long, Vector[ChunkTask]] = {
    val inSet = tasks.map(_.id).toSet
    val m = scala.collection.mutable.Map[Long, Vector[ChunkTask]]().withDefaultValue(Vector.empty)
    tasks.foreach { t =>
      t.inputs.foreach { i => if (inSet.contains(i.id)) m(i.id) = m(i.id) :+ t }
    }
    m.toMap.withDefaultValue(Vector.empty)
  }
}

/** The one topological sort: `Engine.execute` orders chunk tasks with it
  * (fusion coloring consumes that order) and then the fused subtasks.
  */
object Topo {

  /** Kahn's sort (inputs before consumers) of `nodes`; predecessors
    * outside `nodes` count as satisfied. Stable: the queue is seeded with
    * the ready nodes in the given order and drained FIFO, which the
    * breadth-first band assignment relies on.
    */
  def sort[N](nodes: Vector[N], preds: N => Seq[N]): Vector[N] = {
    val inSet = nodes.toSet
    val indeg = scala.collection.mutable.Map[N, Int]()
    val succs = scala.collection.mutable.Map[N, Vector[N]]().withDefaultValue(Vector.empty)
    nodes.foreach { n =>
      val ps = preds(n).filter(inSet.contains)
      indeg(n) = ps.size
      ps.foreach(p => succs(p) = succs(p) :+ n)
    }
    val queue = scala.collection.mutable.Queue[N](nodes.filter(indeg(_) == 0): _*)
    val out = Vector.newBuilder[N]
    var seen = 0
    while (queue.nonEmpty) {
      val n = queue.dequeue(); out += n; seen += 1
      succs(n).foreach { s => indeg(s) -= 1; if (indeg(s) == 0) queue.enqueue(s) }
    }
    require(seen == nodes.size, s"cycle detected ($seen of ${nodes.size} ordered)")
    out.result()
  }
}
