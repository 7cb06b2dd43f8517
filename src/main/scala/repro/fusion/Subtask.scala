package repro.fusion

import repro.core.{ChunkGraph, ChunkTask}

/** A subtask: a fused subgraph of chunk tasks scheduled as one unit on
  * one band (paper §III-C "Subtask Graph").
  *
  * @param id    subtask id (first member task's id)
  * @param tasks member tasks in topological order
  */
final case class Subtask(id: Long, tasks: Vector[ChunkTask]) {
  def taskIds: Set[Long] = tasks.map(_.id).toSet
  /** External input tasks (producers outside this subtask). */
  def externalInputs: Vector[ChunkTask] = {
    val ids = taskIds
    tasks.flatMap(_.inputs).filterNot(t => ids.contains(t.id)).distinctBy(_.id)
  }
}

/** Builds the subtask graph from a chunk-task subgraph. */
object SubtaskGraph {

  /** Fuse `topo` (a closed subgraph in topological order: inputs either
    * inside or already materialized) into subtasks via the coloring
    * algorithm. When `graphFusion` is false every task becomes its own
    * subtask.
    */
  def build(topo: Vector[ChunkTask], graphFusion: Boolean): Vector[Subtask] = {
    if (!graphFusion) return topo.map(t => Subtask(t.id, Vector(t)))
    val inSet = topo.map(_.id).toSet
    val succ = ChunkGraph.successors(topo)
    val groups = Coloring.fuse[ChunkTask](
      topo,
      t => t.inputs.filter(i => inSet.contains(i.id)),
      t => succ(t.id),
    )
    groups.map(g => Subtask(g.head.id, g))
  }

  /** Subtask-level predecessor map (by subtask id), restricted to the
    * given subtasks; materialized inputs are not included.
    */
  def preds(subtasks: Vector[Subtask]): Map[Long, Vector[Long]] = {
    val owner: Map[Long, Long] =
      subtasks.flatMap(st => st.tasks.map(t => t.id -> st.id)).toMap
    subtasks.map { st =>
      val ps = st.externalInputs.flatMap(t => owner.get(t.id)).distinct
      st.id -> ps
    }.toMap
  }
}
