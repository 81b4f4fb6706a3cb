(** Tree decompositions of the pattern graph, and their *nice* form.

    The decomposition is computed on the underlying undirected graph of a
    {!Phom_graph.Digraph.t} (edge directions and self-loops are irrelevant
    to width) by greedy vertex elimination: repeatedly eliminate the vertex
    of minimum degree, record the vertex plus its current neighbourhood as
    a bag, and turn the neighbourhood into a clique. The bags hang off
    each other along the elimination order, giving a valid tree
    decomposition whose width is an upper bound on the true treewidth —
    exact on trees, series-parallel graphs and full k-trees, heuristic in
    general.

    The nice form rewrites that tree into the classic four-node grammar
    (leaf / introduce / forget / join, empty root bag) that the
    {!Dp_exact} dynamic program consumes. Everything here is deterministic:
    ties in the elimination order break towards the smallest vertex id, so
    the same graph always yields the same decomposition. *)

type t = {
  bags : int array array;  (** bag [i] (sorted) for elimination step [i] *)
  parent : int array;  (** parent bag index, [-1] for a component root *)
  order : int array;  (** elimination order: [order.(i)] eliminated at [i] *)
  width : int;  (** max bag size - 1; [-1] for the empty graph *)
}

val compute : Phom_graph.Digraph.t -> t
(** Decompose the underlying undirected graph. *)

val width : Phom_graph.Digraph.t -> int
(** [width g] = [(compute g).width] — the cheap eligibility probe used by
    algorithm auto-selection. *)

(** {1 Nice decompositions} *)

type kind =
  | Leaf  (** empty bag, no children *)
  | Introduce of int  (** bag = child bag + the vertex *)
  | Forget of int  (** bag = child bag - the vertex *)
  | Join  (** two children, all three bags equal *)

type nice = {
  nbags : int array array;  (** bag (sorted) per nice node *)
  nkind : kind array;
  nchildren : int array array;  (** child node ids, always smaller than own *)
  root : int;  (** the unique empty-bag root, last node id *)
  nwidth : int;  (** same convention as {!t.width} *)
}

val nice : t -> nice
(** Rewrite into the nice grammar. Children always carry smaller ids than
    their parent, so iterating nodes in id order is a bottom-up traversal.
    Disconnected components are forgotten down to empty bags and merged
    with empty-bag joins, so the result is always a single rooted tree —
    even for the empty graph (a lone [Leaf]). *)

(** {1 Validity checks — used by the test suite} *)

val check : Phom_graph.Digraph.t -> t -> (unit, string) result
(** Every vertex in some bag, occurrences connected in the tree, every
    (undirected) edge covered by a bag. *)

val check_nice : Phom_graph.Digraph.t -> nice -> (unit, string) result
(** The grammar invariants node by node, plus the same decomposition
    validity conditions on the nice tree itself. *)
