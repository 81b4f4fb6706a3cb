(** Strongly connected components (iterative Tarjan).

    Components are numbered in reverse topological order of the condensation:
    if there is an edge from a node of component [c1] to a node of a distinct
    component [c2], then [c1 > c2]. *)

type t = {
  comp : int array;  (** component id of each node *)
  count : int;  (** number of components *)
}

val compute : Digraph.t -> t

val members : t -> int list array
(** [members scc] lists the nodes of each component, ascending. *)

val sizes : t -> int array

val cyclic : Digraph.t -> t -> bool array
(** [cyclic g scc].(c) is true when component [c] contributes a cycle: it
    has at least two nodes or a member with a self-loop. *)

val successors : Digraph.t -> t -> int array * int array
(** [successors g scc] is [(start, succ)]: the distinct components other
    than [c] that an edge of [g] leaves [c] for are
    [succ.(start.(c))] … [succ.(start.(c + 1) - 1)], in the order those
    edges are first met scanning [c]'s members ascending and each member's
    successors in order. Linear in the size of [g]. *)
