(** The optimization techniques of Appendix B.

    {b Partitioning G1.} Nodes without any candidate cannot contribute to a
    mapping; after dropping them, each weakly connected component of the
    remainder is matched independently and the mappings are unioned
    (Proposition 1). Singleton components short-circuit to their best
    candidate. {e p-hom only}: unioning per-component 1-1 mappings could
    reuse a target across components, so injective matching must not use
    {!partitioned}.

    {b Compressing G2.} Every SCC of [G2] is a clique of [G2⁺]; replace it
    with a single bag-labelled node carrying a self-loop ({!
    Phom_graph.Condensation}). Matching runs against the much smaller
    compressed graph, and the result is translated back by assigning
    concrete clique members (for 1-1 mappings, by maximum bipartite matching
    inside each clique). Translation may have to drop a pair when a clique
    contains fewer ξ-eligible members than the capacity the matcher assumed;
    the result is always a valid mapping, very occasionally a slightly
    smaller one. *)

val matchable_nodes : Instance.t -> int list
(** [G1] nodes with at least one candidate (the complement of the paper's
    set [S1]). *)

val partitioned :
  (Instance.t -> int array -> Mapping.t) -> Instance.t -> Mapping.t
(** [partitioned algo t] applies [algo] per weak component of the matchable
    part of [g1] and unions the results. [algo] receives sub-instances that
    share [t.g2]/[t.tc2], plus the [old_of_new] node map of the component
    (so callers can re-index per-node data such as SPH weights). The
    components are solved one after another on the calling domain, in
    ascending order of their smallest node; a budget [algo] closes over is
    shared by all of them, so it trips at the same tick as on one pass. *)

type compressed = {
  orig : Instance.t;  (** the instance that was compressed *)
  sub : Instance.t;  (** instance against the compressed [G2*] *)
  cond : Phom_graph.Condensation.t;
  capacities : int Matching_list.Int_map.t;
      (** clique sizes, keyed by compressed node *)
}

val compress : Instance.t -> compressed
(** [mat'] of the sub-instance is the member-wise maximum of [mat].
    Requires [t.tc2] to be the full transitive closure of [g2]: an SCC is
    a clique of [G2⁺] but not of a hop-bounded closure, and the
    sub-instance recomputes the full closure over the condensation. *)

val decompress : ?injective:bool -> compressed -> Mapping.t -> Mapping.t
(** Translate a mapping into [G2*] back to concrete [G2] nodes. *)

val with_compression :
  ?injective:bool -> (Instance.t -> Mapping.t) -> Instance.t -> Mapping.t
(** [compress], run, [decompress]. *)
