(** Exact p-homomorphism solving and counting by dynamic programming over a
    nice tree decomposition of the pattern.

    The DP consumes raw materials rather than a [Phom.Instance.t] so this
    library can sit below [phom]: the pattern digraph, the data graph's
    (bounded) transitive closure as a bitmatrix, the per-pattern-node
    candidate rows (already ξ-filtered), and a per-pair value function.
    Tables are keyed by bag assignments; edge constraints are enforced at
    introduce nodes, which a valid decomposition guarantees covers every
    pattern edge. Work is O(Σ_bags |cands|^{bag size}) — polynomial for
    bounded width.

    Anytime contract: one {!Phom_graph.Budget} tick per table row
    processed. A tripped optimisation returns the empty mapping (always a
    valid partial p-hom mapping) with the budget's status; a tripped count
    returns [count = 0, exact = false] — a partial count is not a valid
    answer, and callers must never cache it. With a pool of more than one
    domain, the two subtrees of each join node run concurrently on forked
    budgets; results are deterministic and identical to the sequential run
    whenever the budget does not trip. A size-1 pool is the sequential
    run, budget accounting included. *)

type outcome = {
  mapping : (int * int) list;  (** sorted by pattern node, best found *)
  value : float;  (** objective value of [mapping] *)
  status : Phom_graph.Budget.status;
}

type count_outcome = {
  count : int;  (** number of total valid mappings, saturating at max_int *)
  exact : bool;  (** false when saturated or when the budget tripped *)
  status : Phom_graph.Budget.status;
}

val solve :
  ?budget:Phom_graph.Budget.t ->
  ?pool:Phom_parallel.Pool.t ->
  g1:Phom_graph.Digraph.t ->
  tc2:Phom_graph.Bitmatrix.t ->
  cands:int array array ->
  pair_value:(int -> int -> float) ->
  Treedecomp.nice ->
  outcome
(** Maximum-value partial p-hom mapping: every pattern node maps to one of
    its candidates or stays unmapped (value 0); every pattern edge between
    mapped nodes must land in [tc2]. [pair_value v u >= 0.] is the gain of
    mapping pattern node [v] to data node [u] — [fun _ _ -> 1.] recovers
    maximum cardinality. Ties break towards the lexicographically smallest
    assignment, so the result is independent of table iteration order.
    Injectivity is deliberately out of scope (treewidth DP cannot track
    it); callers wanting 1-1 check the witness and fall back. *)

val count :
  ?budget:Phom_graph.Budget.t ->
  ?pool:Phom_parallel.Pool.t ->
  g1:Phom_graph.Digraph.t ->
  tc2:Phom_graph.Bitmatrix.t ->
  cands:int array array ->
  Treedecomp.nice ->
  count_outcome
(** Number of {e total} valid p-hom mappings — every pattern node mapped to
    one of its candidates, every pattern edge satisfied. [count > 0] iff
    the p-hom decision problem holds on the candidate tables; the empty
    pattern has exactly one (empty) mapping. Arithmetic saturates at
    [max_int] with [exact = false]. Injective counting is #W[1]-hard and
    not offered. *)
