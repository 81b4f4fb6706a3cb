(** Finite directed graphs with string-labelled nodes.

    This is the graph model of the paper (Section 3.1): [G = (V, E, L)] with
    [V = {0, .., n-1}], [E ⊆ V × V] and [L : V → label]. Nodes are dense
    integers so that algorithm state can live in arrays; labels carry the
    application payload (page content, URL, element type, ...).

    Values of this type are immutable once built: all accessors are pure and
    adjacency arrays must not be mutated by clients. *)

type t

(** {1 Construction} *)

val make : labels:string array -> edges:(int * int) list -> t
(** [make ~labels ~edges] builds a graph with [Array.length labels] nodes.
    Duplicate edges are collapsed; self-loops are allowed. Raises
    [Invalid_argument] if an endpoint is out of range. *)

val empty : t
(** The graph with no nodes. *)

(** {1 Basic accessors} *)

val n : t -> int
(** Number of nodes. *)

val nb_edges : t -> int
(** Number of distinct edges. *)

val label : t -> int -> string
(** Label of a node. *)

val labels : t -> string array
(** Fresh copy of the label array. *)

val succ : t -> int -> int array
(** Successors of a node, sorted ascending. The returned array is owned by
    the graph: do not mutate. *)

val pred : t -> int -> int array
(** Predecessors of a node, sorted ascending. Do not mutate. *)

val out_degree : t -> int -> int
val in_degree : t -> int -> int

val degree : t -> int -> int
(** [in_degree + out_degree]. *)

val has_edge : t -> int -> int -> bool
(** O(log out-degree) membership test. *)

val edges : t -> (int * int) list
(** All edges, in lexicographic order. *)

val iter_edges : (int -> int -> unit) -> t -> unit
val fold_edges : (int -> int -> 'a -> 'a) -> t -> 'a -> 'a

val avg_degree : t -> float
(** Average out-degree, [nb_edges / n] ([0.] for the empty graph). *)

val max_degree : t -> int
(** Maximum total degree over nodes ([0] for the empty graph). *)

(** {1 Derived graphs} *)

val reverse : t -> t
(** Same nodes, every edge flipped. *)

val map_labels : (int -> string -> string) -> t -> t
(** Relabel nodes, keeping the structure. *)

val induced : t -> int list -> t * int array
(** [induced g nodes] is the subgraph induced by [nodes] (duplicates ignored)
    together with [old_of_new]: the original id of each new node. New ids
    preserve the relative order of the original ids. *)

val add_edges : t -> (int * int) list -> t
(** Graph with the extra edges added (endpoints must be in range). *)

val add_edge : t -> int -> int -> t
(** [add_edge g u v] is [g] with the edge [(u, v)] added. O(degree) — only
    the two affected adjacency rows are fresh, the rest is shared with [g].
    Raises [Invalid_argument] if an endpoint is out of range or the edge is
    already present. *)

val remove_edge : t -> int -> int -> t
(** [remove_edge g u v] is [g] without the edge [(u, v)]. O(degree), shares
    untouched rows with [g]. Raises [Invalid_argument] if an endpoint is out
    of range or the edge is absent. *)

val disjoint_union : t -> t -> t
(** Nodes of the second graph are shifted by [n] of the first. *)

(** {1 Comparison and printing} *)

val equal : t -> t -> bool
(** Structural equality: same labels and same edge set. *)

val pp : Format.formatter -> t -> unit
(** Human-readable multi-line rendering. *)
