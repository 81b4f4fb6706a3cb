(** Exact solver: optimal (1-1) p-hom mappings and the NP-complete decision
    problems, by one assignment-tree branch and bound that [solve],
    [enumerate_optimal] and [decide] share: pattern nodes scarcest
    candidate row first, each tried against its candidates in row order
    (and, for the optimisation passes, left unmapped), subtrees cut by a
    per-node best-value suffix bound.

    A depth's first visit tests each candidate against the placed
    neighbours by closure lookups and allocates nothing. When the search
    comes back to it, the node's {!Phom_graph.Fit} yields the candidates,
    an AND of bitmasks, one per placed neighbour and that neighbour's
    target, each built once and kept for the rest of the search: at most
    one closure-sized bit matrix per pattern edge. Masks change neither
    the order nor the ticks, so answers and step counts are those of the
    per-candidate test.

    Exponential in the worst case — Theorems 4.1/4.3 say nothing better is
    possible — but practical on small graphs. It serves three roles: the
    optimality oracle for the approximation algorithms' quality tests, the
    decision procedure [G1 ⪯(e,p) G2] / [G1 ⪯¹⁻¹(e,p) G2], and the
    end-to-end check of the Appendix-A reductions. *)

type objective =
  | Cardinality  (** maximize [qualCard] — CPH / CPH¹⁻¹ *)
  | Similarity of float array  (** maximize [qualSim] with these node weights — SPH / SPH¹⁻¹ *)

val pair_value : objective -> Instance.t -> int -> int -> float
(** The gain of mapping pattern node [v] to data node [u]: [1.], or
    [w.(v) *. mat(v, u)] under [Similarity w]. *)

type outcome = {
  mapping : Mapping.t;
      (** always a valid (1-1 when [injective]) p-hom mapping — the best
          found so far when the budget ran out *)
  status : Phom_graph.Budget.status;
      (** [Complete] when the search finished (so [mapping] is optimal);
          [Exhausted _] when the budget tripped first *)
}

val solve :
  ?injective:bool ->
  ?budget:Phom_graph.Budget.t ->
  objective:objective ->
  Instance.t ->
  outcome
(** One budget tick per explored search node. When [budget] is omitted a
    fresh 5,000,000-step token is used — the historical safety net. *)

val enumerate_optimal :
  ?injective:bool ->
  ?budget:Phom_graph.Budget.t ->
  ?limit:int ->
  objective:objective ->
  Instance.t ->
  Mapping.t list * bool
(** All optimal mappings (up to [limit], default 100), in lexicographic
    order, and whether the enumeration is exhaustive: false when the budget
    ran out, or when a further optimum beyond the first [limit] exists.
    Applications use this to present every witness — e.g. all maximal
    plagiarism correspondences. *)

val decide :
  ?injective:bool ->
  ?budget:Phom_graph.Budget.t ->
  ?candidates:int array array ->
  Instance.t ->
  bool option
(** Does a (1-1) p-hom mapping of the {e entire} [G1] exist? [None] when the
    budget ran out before the answer was determined. [candidates] overrides
    {!Instance.candidates} — the hook {!Prefilter} uses to hand over its
    pruned candidate sets. *)
