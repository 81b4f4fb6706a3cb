(** The product (compatibility) graph of the AFP-reduction in Theorem 5.1.

    Nodes are the candidate pairs [[v, u]] with [mat(v, u) ≥ ξ] (and, when
    [v] has a self-loop, [u] on a cycle of [G2]). Two pairs are {e adjacent}
    iff they can coexist in one p-hom mapping:
    - [v1 ≠ v2] (a mapping is a function),
    - [(v1, v2) ∈ E1 ⟹ (u1, u2) ∈ E2⁺] and symmetrically for [(v2, v1)],
    - for 1-1 mappings additionally [u1 ≠ u2].

    Cliques of this graph are exactly the (1-1) p-hom mappings from induced
    subgraphs of [G1] to [G2] (Claim 2 in the paper's appendix); independent
    sets of its complement are the same thing, which is how the paper phrases
    the reduction to WIS. Node weights are [w(v) · mat(v, u)] so that a
    maximum-weight clique is a maximum-overall-similarity mapping. *)

type t = {
  graph : Ungraph.t;  (** compatibility graph; weights as described above *)
  pairs : (int * int) array;  (** product node → (v in G1, u in G2) *)
}

val build :
  ?injective:bool ->
  ?weights:float array ->
  g1:Phom_graph.Digraph.t ->
  tc2:Phom_graph.Bitmatrix.t ->
  mat:Phom_sim.Simmat.t ->
  xi:float ->
  unit ->
  t
(** [weights] are the [G1] node weights [w(v)], default all ones; pass
    [Array.make (Digraph.n g1) 1.] and a [mat] of 0/1 values to express the
    cardinality objective. [tc2] is the transitive closure of [G2]
    ({!Phom_graph.Transitive_closure.compute}). *)

val mapping_of_clique : t -> int list -> (int * int) list
(** Translate product nodes back to a mapping, sorted by [G1] node
    (function [g] of the reduction). *)
