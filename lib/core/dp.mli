(** The tree-decomposition DP as an exact solver over an {!Instance.t} —
    the thin adapter between {!Phom_treedecomp.Dp_exact} (which works on
    raw graphs and candidate rows) and the rest of the core.

    For p-hom problems the DP is exact on its own and runs in
    O(Σ_bags |cands|^{bag+1}) — polynomial for bounded-width patterns,
    which is why {!Api.solve_within} auto-selects it when the computed
    width is small. For the 1-1 problems the DP solves the non-injective
    relaxation first: when the witness happens to be injective it is
    provably optimal for the 1-1 problem too (the relaxation bounds it
    from above and the witness is feasible); otherwise the call falls back
    to the branch-and-bound on the same budget. Both run on the caller's
    domain, so a step cap completes exactly when it covers the DP's rows
    (and the fallback's search nodes), whatever pool the caller holds. *)

val width : Instance.t -> int
(** Width of the greedy decomposition of [g1] — the auto-selection probe.
    [-1] for an empty pattern. *)

val solve :
  ?injective:bool ->
  ?budget:Phom_graph.Budget.t ->
  objective:Exact.objective ->
  Instance.t ->
  Exact.outcome
(** Same contract as {!Exact.solve}: the optimal (1-1 when [injective])
    p-hom mapping, one budget tick per DP table row (per search node in
    the 1-1 fallback), anytime best-so-far on a trip. A tripped DP
    surrenders the empty mapping — valid, but carrying no quality. *)

type count_result = {
  count : int;  (** total valid p-hom mappings, saturating at [max_int] *)
  exact : bool;  (** false when saturated or the budget tripped *)
  width : int;  (** computed decomposition width of [g1] *)
  status : Phom_graph.Budget.status;
}

val count :
  ?budget:Phom_graph.Budget.t ->
  Instance.t ->
  count_result
(** Number of total valid p-hom mappings of the whole pattern (every node
    mapped within its candidate row, every edge into [tc2]) — see
    {!Phom_treedecomp.Dp_exact.count}. [count > 0] iff {!Api.decide_phom}
    holds; the empty pattern counts exactly one mapping. A tripped count
    is [0, exact = false] and must never be cached. *)
