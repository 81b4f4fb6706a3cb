(** Fixed-capacity bit sets over the universe [0 .. len-1].

    Backed by an [int array] with 63 usable bits per word. All operations
    assume their arguments were created with the same [len]; mixing lengths
    raises [Invalid_argument]. *)

type t

val bits_per_word : int
(** Element [i] is bit [i mod bits_per_word] of word [i / bits_per_word]. *)

val create : int -> t
(** [create len] is the empty set over universe [0 .. len-1]. *)

val length : t -> int
(** Universe size the set was created with. *)

val mem : t -> int -> bool
(** [mem s i] tests membership. Raises [Invalid_argument] if [i] is out of
    bounds. *)

val add : t -> int -> unit
(** [add s i] inserts [i] in place. *)

val remove : t -> int -> unit
(** [remove s i] deletes [i] in place. *)

val copy : t -> t
(** Fresh set with the same elements. *)

val clear : t -> unit
(** [clear s] empties [s] in place, keeping its universe — pairs with
    {!copy_into} for allocation-free buffer reuse. *)

val union_into : into:t -> t -> unit
(** [union_into ~into s] sets [into := into ∪ s]. *)

val inter_into : into:t -> t -> unit
(** [inter_into ~into s] sets [into := into ∩ s]. *)

val diff_into : into:t -> t -> unit
(** [diff_into ~into s] sets [into := into \ s]. *)

val copy_into : into:t -> t -> unit
(** [copy_into ~into s] sets [into := s] without allocating — the buffer-reuse
    primitive of the branch-and-bound hot loops. *)

val inter : t -> t -> t
(** [inter a b] is a fresh set holding [a ∩ b]. *)

val is_empty : t -> bool

val count : t -> int
(** Number of elements (population count). *)

val inter_count : t -> t -> int
(** [inter_count a b] is [count (inter a b)] without the allocation. *)

val disjoint : t -> t -> bool
(** [disjoint a b] is true iff [a ∩ b = ∅]; early-exits on the first
    overlapping word, so testing against small sets is cheap. *)

val equal : t -> t -> bool

val subset : t -> t -> bool
(** [subset a b] is true iff [a ⊆ b]. *)

val popcount : int -> int
(** Number of set bits of one word. *)

val iter : (int -> unit) -> t -> unit
(** Iterate over elements in increasing order. *)

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
(** Fold over elements in increasing order. *)

val to_list : t -> int list
(** Elements in increasing order. *)

val of_list : int -> int list -> t
(** [of_list len xs] builds a set over [0 .. len-1] containing [xs]. *)

val full : int -> t
(** [full len] contains every element of the universe. *)

val choose : t -> int option
(** Smallest element, if any. *)

val pp : Format.formatter -> t -> unit
(** Prints as [{e1, e2, ...}]. *)
