(** High-level entry points, organized around Table 1's four optimization
    problems.

    Typical use:
    {[
      let t = Phom.Instance.make ~g1 ~g2 ~mat ~xi:0.75 () in
      let r = Phom.Api.solve Phom.Api.CPH t in
      if Phom.Api.matches r then ...
    ]}

    With a resource budget (anytime use — e.g. answer within 100ms):
    {[
      let budget = Phom_graph.Budget.create ~timeout:0.1 () in
      let r = Phom.Api.solve_within ~budget Phom.Api.CPH t in
      match r.Phom.Api.status with
      | Phom_graph.Budget.Complete -> ...      (* full-quality answer *)
      | Phom_graph.Budget.Exhausted _ -> ...   (* valid, best found so far *)
    ]} *)

(** The four optimization problems of Table 1. *)
type problem =
  | CPH  (** maximum cardinality, p-hom *)
  | CPH11  (** maximum cardinality, 1-1 p-hom *)
  | SPH  (** maximum overall similarity, p-hom *)
  | SPH11  (** maximum overall similarity, 1-1 p-hom *)

(** Which algorithm answers it. *)
type algorithm =
  | Direct  (** compMaxCard / compMaxSim — the paper's main algorithms *)
  | Naive_product  (** Section 5's naive reduction through the product graph *)
  | Exact_bb  (** branch and bound; exponential, small inputs only *)
  | Dp_td
      (** exact DP over a tree decomposition of [g1]; polynomial for
          bounded-width patterns. [Exact_bb] routes here automatically
          when the computed width is at most [max_width]. *)

type result = {
  problem : problem;
  mapping : Mapping.t;
  quality : float;  (** [qualCard] or [qualSim] of the mapping *)
  status : Phom_graph.Budget.status;
      (** [Complete] when the solver ran to its natural end; [Exhausted _]
          when the budget tripped and [mapping] is the (valid) best found
          so far *)
}

val injective : problem -> bool
val problem_name : problem -> string
(** ["CPH"], ["CPH1-1"], ["SPH"], ["SPH1-1"]. *)

val solve_within :
  ?algorithm:algorithm ->
  ?weights:float array ->
  ?partition:bool ->
  ?compress:bool ->
  ?max_width:int ->
  ?budget:Phom_graph.Budget.t ->
  ?pool:Phom_parallel.Pool.t ->
  ?warm_start:Mapping.t ->
  problem ->
  Instance.t ->
  result
(** [warm_start] re-seeds the solve from a previous answer — typically the
    mapping found before an [addedge]/[deledge] edit of one of the graphs.
    It acts as an anytime incumbent: when the budget trips, the mapping is
    repaired against the current instance ({!Warm.repair}) and the result
    is never worse than the repaired seed. A [Complete] result is returned
    unchanged (it is proven optimal) and the seed is never repaired, so
    warm-started solves that run to completion stay byte-identical to cold
    ones. [phom_warm_seeds_total] counts the non-empty seeds repaired for an
    exhausted search, and [phom_warm_rescued_total] those that beat it.

    [max_width] (default 4) is the decomposition-width ceiling up to which
    [Exact_bb] requests are answered by the tree-decomposition DP
    ({!Dp.solve}) instead of the branch and bound; [Dp_td] forces the DP
    regardless of width, with the budget as the guard rail.

    [weights] applies to SPH/SPH¹⁻¹ (default all ones). [partition] enables
    the Appendix-B G1 partitioning (p-hom problems only — ignored for the
    1-1 problems, whose mappings cannot be unioned safely); [compress]
    enables the Appendix-B G2 compression. Both default to [false]. By the
    same rule [Exact_bb] and [Dp_td] ignore [compress] on the 1-1 problems:
    a collapsed SCC could take only one pattern node, so the optimum would
    fall. [compress] requires [t.tc2] to be the full transitive closure of
    [g2] ({!Opts.compress}); a hop-bounded closure must not be compressed.

    [budget] is a single token shared by every phase the call runs
    (prefilters, clique search, branch and bound); when it trips, the
    returned [mapping] is still a valid (1-1) p-hom mapping — the best
    found so far — and [status] is [Exhausted _]. Without [budget] the
    approximation algorithms run to completion; [Exact_bb] retains its
    internal safety budget (a 5·10⁶-step token) and reports through
    [status] if it tripped.

    Repeated solves against the same {!Instance.t} are cheap to multiplex:
    the candidate structure every solver starts from is memoized inside the
    instance ({!Instance.candidates}), so a resident service can preload an
    instance once and answer many queries against it without re-deriving
    shared state per request (see {!Instance.preset_candidates} for priming
    it from an artifact cache).

    Every phase runs on the caller's domain, [partition]'s components one
    after another, so a step cap trips at the same tick on every route.
    [pool] is ignored; it is kept only so that existing callers
    (phombench's tracer) still compile. *)

val solve :
  ?algorithm:algorithm ->
  ?weights:float array ->
  ?partition:bool ->
  ?compress:bool ->
  problem ->
  Instance.t ->
  result
(** {!solve_within} without a budget. *)

val matches : ?threshold:float -> result -> bool
(** The experiments' match rule: quality ≥ [threshold] (default 0.75). *)

val report : Instance.t -> result -> string
(** A human-readable account of a matching result: every mapped pair with
    its similarity, and for every pattern edge inside the mapping's domain
    the shortest witness path of [g2] it maps to. The explainability
    surface of the library — what a reviewer checks before believing a
    match. Notes an exhausted budget when [status] is [Exhausted _]. *)

val decide_phom :
  ?budget:Phom_graph.Budget.t -> Instance.t -> bool option
(** [G1 ⪯(e,p) G2] — exact, exponential worst case. [None] when the budget
    tripped before an answer was reached. *)

val decide_one_one_phom :
  ?budget:Phom_graph.Budget.t -> Instance.t -> bool option
(** [G1 ⪯¹⁻¹(e,p) G2]. *)

val count :
  ?budget:Phom_graph.Budget.t ->
  Instance.t ->
  Dp.count_result
(** How many total valid p-hom mappings the instance admits — the counting
    workload, answered by the tree-decomposition DP regardless of width
    (the budget bounds wide patterns). [count > 0] iff {!decide_phom}
    holds. A tripped count reports [0, exact = false, Exhausted _] and
    must never be cached. *)
