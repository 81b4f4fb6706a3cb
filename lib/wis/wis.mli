(** Approximate maximum (weighted) independent sets and cliques.

    Unweighted: Boppana–Halldórsson removal ({!Ramsey}). Weighted:
    Halldórsson's reduction [16] — drop nodes lighter than [W/n], bucket the
    rest into ⌈log₂ n⌉ geometric weight classes [(W/2ⁱ, W/2ⁱ⁻¹]], solve each
    class unweighted, return the heaviest answer. The paper's compMaxSim
    borrows exactly this trick at the matching-list level. *)

val max_independent_set :
  ?budget:Phom_graph.Budget.t ->
  Ungraph.t ->
  int list
(** Cardinality objective; sorted ascending. All four approximations are
    anytime: an exhausted [budget] yields the best valid set found so far
    (check the token's {!Phom_graph.Budget.status} to distinguish). *)

val max_clique :
  ?budget:Phom_graph.Budget.t ->
  Ungraph.t ->
  int list

val max_weight_independent_set :
  ?budget:Phom_graph.Budget.t ->
  Ungraph.t ->
  int list
(** Weight objective. Never returns worse than the single heaviest node,
    even under an exhausted budget. *)

val max_weight_clique :
  ?budget:Phom_graph.Budget.t ->
  Ungraph.t ->
  int list
(** As {!max_weight_independent_set} for cliques, with one upgrade: on
    graphs of at most a few hundred nodes the answer is additionally
    refined by the exact {!Mwc} engine under a bounded step allowance (the
    caller's [budget] when given, a small private token otherwise), keeping
    whichever clique is heavier. Never worse than the approximation. *)

val exact_max_clique :
  ?budget:Phom_graph.Budget.t ->
  Ungraph.t ->
  int list * Phom_graph.Budget.status
(** Exact maximum-cardinality clique via the bitset MWC engine ({!Mwc}) on
    unit weights: weight-degeneracy vertex order, greedy weighted-colouring
    upper bounds, one budget tick per search node (default: a fresh
    10⁷-step token). Always returns the best clique found; [Exhausted _]
    marks it possibly suboptimal — this is how the cdkMCS baseline "does
    not run to completion" while still reporting its partial answer. *)

val exact_max_weight_clique :
  ?budget:Phom_graph.Budget.t ->
  Ungraph.t ->
  int list * float * Phom_graph.Budget.status
(** Exact maximum-weight clique on the graph's node weights — the
    Jain–Obermayer form of the exact p-hom path. Returns the clique, its
    total weight, and the anytime status. *)

val exact_max_clique_legacy :
  ?budget:Phom_graph.Budget.t ->
  Ungraph.t ->
  int list * Phom_graph.Budget.status
(** The pre-MWC exact engine (Tomita branch and bound, unweighted colouring
    bound, list-backed classes). Reference implementation for the
    [bench exact] old-vs-new comparison and the agreement property tests;
    new code wants {!exact_max_clique}. *)
