(** Packed boolean matrices.

    Rows are word-aligned so that whole-row boolean operations (used by the
    transitive-closure computation) are single array sweeps. The main client
    is the reachability matrix [H2] of the paper's algorithms: [get m u v]
    answers "is there a non-empty path from [u] to [v]" in O(1). *)

type t

val create : rows:int -> cols:int -> t
(** All-false matrix. *)

val rows : t -> int
val cols : t -> int

val byte_size : t -> int
(** Heap footprint of the matrix in bytes (words of the packed
    representation, including headers). Used for byte-accounted caching of
    closure artifacts. *)

val get : t -> int -> int -> bool
(** [get m r c]. Raises [Invalid_argument] when out of bounds. *)

val set : t -> int -> int -> bool -> unit
(** [set m r c b] updates one cell in place. *)

val or_row_into : t -> dst:int -> src:int -> unit
(** [or_row_into m ~dst ~src] sets row [dst] to [dst ∨ src]. *)

val or_row : from:t -> src:int -> into:t -> dst:int -> unit
(** [or_row ~from ~src ~into ~dst] sets row [dst] of [into] to its union with
    row [src] of [from]. Both matrices must have the same number of columns. *)

val row_count : t -> int -> int
(** Number of true cells in a row. *)

val count : t -> int
(** Number of true cells in the whole matrix. *)

val equal : t -> t -> bool

val iter_row : (int -> unit) -> t -> int -> unit
(** [iter_row f m r] applies [f] to every column [c] with [get m r c]. *)

val transpose : t -> t

val pp : Format.formatter -> t -> unit
(** Renders as lines of [01] characters, one row per line. *)
