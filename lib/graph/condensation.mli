(** The Appendix-B compression of [G₂⁺]: every SCC of [G₂] forms a clique in
    the transitive closure, so it is replaced by a single node carrying the
    bag of its labels, with a self-loop when the component is cyclic (two or
    more nodes, or a self-loop in [G₂]). The compressed graph [G₂*] has one
    node per SCC and an edge [c → d] iff some member of [c] reaches some
    member of [d] by a non-empty path; since reachability between components
    is transitive, [G₂*] is its own transitive closure (modulo self-loops on
    cyclic components). *)

type t = {
  graph : Digraph.t;
      (** [G₂*]: node [c] has a synthetic label ["bag:c"]; a self-loop marks a
          cyclic component. Its edge relation is transitively closed. *)
  comp_of_node : int array;  (** original node → compressed node *)
  members : int list array;  (** compressed node → original nodes, ascending *)
  cyclic : bool array;
      (** [cyclic.(c)] iff the component has ≥ 2 nodes or a self-loop *)
}

val compress : Digraph.t -> t

val bag : t -> Digraph.t -> int -> string list
(** [bag c g2 node] is the multiset of original labels carried by compressed
    node [node], in ascending node order of [g2]. *)

val capacity : t -> int -> int
(** Number of original nodes a compressed node stands for — the bound on how
    many distinct [G1] nodes may map into it under a 1-1 mapping. *)
