(** Unified resource budgets with anytime semantics.

    The paper's decision problems are NP-complete and its optimization
    problems are inapproximable within [O(1/n^{1-ε})] (Theorems 4.1–4.3), so
    every solver in this repository can blow up on adversarial inputs. A
    {!t} is a single mutable token carrying a wall-clock deadline, a step
    budget and an external cancellation hook; one token is threaded through
    an entire pipeline (closure construction, prefiltering, search) so the
    phases draw on a common allowance. Every solve runs on its caller's
    domain, so a token is ticked by one domain at a time, and a step cap
    trips at the same tick on every route.

    Solvers call {!tick} once per unit of work (a search node, a fixpoint
    pass, a BFS visit). The step counter is checked on every tick; the
    clock and the cancellation hook are only polled on power-of-two ticks
    and every 1024 ticks thereafter, so ticking costs an increment and a
    compare on the hot path. Exhaustion is {e sticky}: once a token trips,
    every subsequent {!tick} returns [false] immediately, which lets deep
    recursions unwind cheaply while still returning the best valid result
    found so far. *)

type reason =
  | Deadline  (** the wall-clock deadline passed *)
  | Steps  (** the step budget was consumed *)
  | Cancelled  (** {!cancel} was called or the cancellation hook fired *)

type status =
  | Complete  (** the solver ran to its natural end *)
  | Exhausted of reason
      (** the budget tripped; the accompanying result is the best found so
          far, valid but possibly suboptimal *)

type t

val unlimited : unit -> t
(** A token that never trips. *)

val create :
  ?anchor:float -> ?timeout:float -> ?steps:int -> ?cancel:(unit -> bool) -> unit -> t
(** [create ?anchor ?timeout ?steps ?cancel ()] trips when [timeout]
    wall-clock seconds have elapsed since [anchor] (default: now, as
    [Unix.gettimeofday ()] — pass the process start time to charge startup
    work against the deadline), when [steps] ticks have been consumed, or
    when [cancel ()] returns [true] at a poll point — whichever comes
    first. Omitted dimensions are unlimited.

    @raise Invalid_argument on a negative [timeout] or [steps]. *)

val trip_after : int -> t
(** [trip_after n] is a deterministic fault-injection token: it permits
    exactly [n] ticks and trips on the next one, independent of the clock.
    The test suite drives every solver over a grid of trip points with
    this. Equivalent to [create ~steps:n ()]. *)

val tick : t -> bool
(** Consume one unit of work. [true] means keep going; [false] means the
    budget is exhausted (now or earlier — exhaustion is sticky). *)

exception Exhausted_budget
(** Raised by {!tick_exn}; never escapes a solver — each catches it at its
    boundary and returns its best-so-far result with an [Exhausted]
    status. *)

val tick_exn : t -> unit
(** {!tick}, raising {!Exhausted_budget} instead of returning [false] —
    convenient inside deep recursions that unwind via an exception. *)

val poll : t -> bool
(** Re-check the clock and the cancellation hook immediately, bypassing the
    amortization; [true] means still within budget. Does not consume a
    step. Callers use this for a final "did we make the deadline?" check
    after fast paths that tick too few times to hit a poll point. *)

val exhausted : t -> bool
(** Has the token tripped? Does not consume a step and does not poll. *)

val cancel : t -> unit
(** Trip the token from outside the solver (e.g. a signal handler).
    Idempotent; an earlier trip reason wins. The token is a plain mutable
    value: to stop it from another domain, use the [cancel] hook of
    {!create} instead, which the ticking domain polls — as phomd's drain
    does. *)

val status : t -> status
val why : t -> reason option
val steps_used : t -> int
(** Ticks consumed so far — exposed for tests and diagnostics. *)

val string_of_reason : reason -> string
(** ["deadline"], ["steps"], ["cancelled"]. *)

val string_of_status : status -> string
(** ["complete"] or ["exhausted (<reason>)"]. *)
