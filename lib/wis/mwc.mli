(** Bitset-native exact maximum-weight-clique engine.

    The exact p-hom/1-1 p-hom path is maximum-weight clique on the
    Theorem-5.1 compatibility graph (Jain & Obermayer); this engine is its
    solver: weight-degeneracy vertex ordering computed once per instance,
    bitset adjacency rows with incremental candidate-set intersection,
    greedy weighted-colouring upper bounds (sum of per-colour-class weight
    maxima) pruning the branch and bound, and deterministic greedy restarts
    that raise the incumbent before the search so the anytime floor is
    never the empty clique.

    Requires non-negative node weights. One {!Phom_graph.Budget} tick per
    search node (and per restart probe); a trip returns the best clique
    found so far with an [Exhausted] status. *)

type result = {
  clique : int list;  (** sorted ascending *)
  weight : float;  (** total weight of [clique] under the solved objective *)
  status : Phom_graph.Budget.status;
}

val solve :
  ?budget:Phom_graph.Budget.t ->
  Ungraph.t ->
  result
(** Maximum-weight clique under the graph's node weights. Default budget:
    a fresh 10⁷-step token (the historical exact-path safety net). *)

val solve_cardinality :
  ?budget:Phom_graph.Budget.t ->
  Ungraph.t ->
  result
(** Maximum clique by cardinality: the same engine on unit weights, so
    [weight] equals the clique size. *)
