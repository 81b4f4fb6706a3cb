(** Algorithm compMaxCard (paper Fig. 3) and its 1-1 variant
    compMaxCard¹⁻¹: approximation algorithms for the maximum-cardinality
    problems CPH and CPH¹⁻¹ with the O(log²(n1·n2)/(n1·n2)) guarantee of
    Theorem 5.1/Proposition 5.2.

    The main loop alternates {!Greedy.run} with the removal of the
    contradictory pair set [I] it returns, keeping the best mapping seen,
    until the remaining matching list cannot beat it. *)

val run :
  ?injective:bool ->
  ?budget:Phom_graph.Budget.t ->
  ?capacities:int Matching_list.Int_map.t ->
  ?pick:[ `Best_sim | `First ] ->
  Instance.t ->
  Mapping.t
(** The returned mapping is always a valid (1-1 when [injective]) p-hom
    mapping from an induced subgraph of [g1] to [g2] — also under an
    exhausted [budget], which stops the greedyMatch iteration early and
    returns the best mapping found so far (check
    {!Phom_graph.Budget.status} on the token to distinguish).

    [capacities] (only meaningful with [injective]) overrides the per-target
    capacity of 1 — the hook used when [g2] is an Appendix-B compressed
    graph whose nodes stand for whole cliques.

    [pick] selects the candidate heuristic of greedyMatch line 2, which the
    paper leaves unspecified: [`Best_sim] (default) tries the most similar
    candidate first, [`First] takes an arbitrary (smallest-id) candidate —
    the paper-faithful choice, and measurably less accurate (see the Fig. 5
    ablation in EXPERIMENTS.md). Both enjoy the same worst-case guarantee. *)

val run_on :
  ?injective:bool ->
  ?budget:Phom_graph.Budget.t ->
  ?capacities:int Matching_list.Int_map.t ->
  ?pick:[ `Best_sim | `First ] ->
  Matching_list.t ->
  Mapping.t
(** Run the main loop from an explicit initial matching list, on the
    instance of its universe — the hook {!Comp_max_sim} uses to process its
    weight groups. The list is consumed: each round removes its conflict
    set from it in place. *)
