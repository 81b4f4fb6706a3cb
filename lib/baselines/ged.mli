(** Approximate graph edit distance (Riesen–Bunke bipartite/assignment GED)
    — the edit-distance similarity measure of Zeng et al. [31] that the
    paper's Related Work classifies under structure-based approaches
    ("essentially based on subgraph isomorphism").

    Exact GED is itself NP-hard, so the standard practical algorithm
    assigns nodes by a minimum-cost bipartite assignment over
    substitution/insertion/deletion costs (with local edge-degree terms
    standing in for the quadratic edge costs) — an upper bound on the true
    edit distance, computed in O(n³). *)

type costs = {
  node_sub : int -> int -> float;
      (** cost of substituting pattern node [v] by data node [u] *)
  node_indel : float;  (** node insertion/deletion cost, per node *)
  edge_indel : float;  (** edge insertion/deletion cost, per edge *)
}

val costs_of_simmat : Phom_sim.Simmat.t -> costs
(** Substitution cost [1 − mat(v, u)] — the similarity-aware variant. *)

val approx :
  ?costs:costs ->
  ?budget:Phom_graph.Budget.t ->
  Phom_graph.Digraph.t ->
  Phom_graph.Digraph.t ->
  float
(** The assignment-based GED upper bound. 0 for identical graphs. Default
    [costs]: label equality — substitution is free on equal labels and
    costs 1 otherwise; insert/delete cost 1 each. An
    exhausted [budget] falls back to the trivial upper bound (delete one
    graph, insert the other) — still an upper bound, never raises. *)

val similarity :
  ?costs:costs ->
  ?budget:Phom_graph.Budget.t ->
  Phom_graph.Digraph.t ->
  Phom_graph.Digraph.t ->
  float
(** [1 − ged / ged_max] where [ged_max] deletes one graph and inserts the
    other; in [[0, 1]], 1.0 for identical graphs. Under an exhausted
    [budget] this degrades towards 0 (never above the unbudgeted value). *)

val matches :
  ?costs:costs ->
  ?budget:Phom_graph.Budget.t ->
  ?threshold:float ->
  Phom_graph.Digraph.t ->
  Phom_graph.Digraph.t ->
  bool
(** [similarity ≥ threshold] (default 0.75). *)
