type reason = Deadline | Steps | Cancelled

type status = Complete | Exhausted of reason

(* State shared by a family of forked tokens (see [fork] below). [ledger]
   is the next unclaimed step index of the global allowance: children claim
   leases of [lease] steps with one fetch-and-add, so the hot tick path
   stays an increment and a compare, and the grants exactly partition
   [initial steps, total) — the global step cap is exact, not approximate.
   [sstop] is the first trip of the whole family: the first exhausted
   member publishes its reason, every sibling adopts it at its next poll
   point. *)
type shared = {
  total : int;  (* the family-wide max_steps *)
  ledger : int Atomic.t;
  sstop : reason option Atomic.t;
}

type t = {
  deadline : float;  (* absolute gettimeofday; [infinity] = none *)
  mutable max_steps : int;  (* [max_int] = none; children grow it by leases *)
  cancel_hook : (unit -> bool) option;
  needs_poll : bool;  (* deadline, hook or family present: worth polling *)
  mutable steps : int;
  mutable stop : reason option;
  mutable shared : shared option;
  is_child : bool;  (* a forked token drawing leases from [shared] *)
}

exception Exhausted_budget

let publish s r = ignore (Atomic.compare_and_set s.sstop None (Some r))

(* every trip goes through here so that a member of a forked family also
   publishes the reason to its siblings *)
let set_stop t r =
  if t.stop = None then begin
    t.stop <- Some r;
    match t.shared with Some s -> publish s r | None -> ()
  end

let make ~deadline ~max_steps ~cancel_hook =
  {
    deadline;
    max_steps;
    cancel_hook;
    needs_poll = deadline < infinity || Option.is_some cancel_hook;
    steps = 0;
    stop = None;
    shared = None;
    is_child = false;
  }

let unlimited () = make ~deadline:infinity ~max_steps:max_int ~cancel_hook:None

let create ?anchor ?timeout ?steps ?cancel () =
  let deadline =
    match timeout with
    | None -> infinity
    | Some s when s < 0. -> invalid_arg "Budget.create: negative timeout"
    | Some s ->
        let base = match anchor with Some a -> a | None -> Unix.gettimeofday () in
        base +. s
  in
  let max_steps =
    match steps with
    | None -> max_int
    | Some n when n < 0 -> invalid_arg "Budget.create: negative steps"
    | Some n -> n
  in
  make ~deadline ~max_steps ~cancel_hook:cancel

let trip_after n =
  if n < 0 then invalid_arg "Budget.trip_after: negative trip point";
  make ~deadline:infinity ~max_steps:n ~cancel_hook:None

let check_clock_and_hook t =
  if t.deadline < infinity && Unix.gettimeofday () > t.deadline then
    set_stop t Deadline
  else begin
    match t.cancel_hook with
    | Some hook when hook () -> set_stop t Cancelled
    | _ -> ()
  end

let poll t =
  (match t.stop with
  | Some _ -> ()
  | None -> (
      (* a sibling's trip wins over a fresh local check, and carries its
         own reason (first-exhausted cancels the family) *)
      match t.shared with
      | Some s -> (
          match Atomic.get s.sstop with
          | Some r -> t.stop <- Some r
          | None -> check_clock_and_hook t)
      | None -> check_clock_and_hook t));
  t.stop = None

(* lease size: one fetch-and-add per 128 ticks keeps contention negligible
   while bounding how far a family can overshoot a deadline-free step cap
   (it cannot overshoot at all: grants never exceed the remaining total) *)
let lease = 128

let rec tick t =
  match t.stop with
  | Some _ -> false
  | None ->
      if t.steps >= t.max_steps then begin
        match t.shared with
        | Some s when t.is_child ->
            (* lease exhausted: claim the next slice of the family
               allowance, or trip the whole family if none is left *)
            let old = Atomic.fetch_and_add s.ledger lease in
            let grant = if old >= s.total then 0 else min lease (s.total - old) in
            if grant = 0 then begin
              (* a sibling may already have tripped for a better reason *)
              (match Atomic.get s.sstop with
              | Some r -> t.stop <- Some r
              | None -> set_stop t Steps);
              false
            end
            else begin
              t.max_steps <- t.max_steps + grant;
              tick t
            end
        | _ ->
            set_stop t Steps;
            false
      end
      else begin
        t.steps <- t.steps + 1;
        let s = t.steps in
        (* poll on powers of two (so short runs under a tight deadline still
           notice it) and every 1024 ticks thereafter *)
        if t.needs_poll && (s land 0x3ff = 0 || s land (s - 1) = 0) then
          poll t
        else true
      end

let tick_exn t = if not (tick t) then raise Exhausted_budget

let exhausted t = t.stop <> None

let cancel t = set_stop t Cancelled

let status t = match t.stop with None -> Complete | Some r -> Exhausted r

let why t = t.stop

let steps_used t = t.steps

let fork parent =
  (* a child's steps are leases it already drew from the ledger: joining a
     grandchild into it would make its next tick lease them again *)
  if parent.is_child then invalid_arg "Budget.fork: a forked token cannot be forked";
  let s =
    match parent.shared with
    | Some s -> s
    | None ->
        let s =
          {
            total = parent.max_steps;
            ledger = Atomic.make parent.steps;
            sstop = Atomic.make None;
          }
        in
        (* a parent that already tripped spawns already-tripped children *)
        (match parent.stop with Some r -> publish s r | None -> ());
        parent.shared <- Some s;
        s
  in
  {
    deadline = parent.deadline;
    max_steps = 0;  (* first tick claims the first lease *)
    cancel_hook = parent.cancel_hook;
    needs_poll = true;  (* must observe sibling trips *)
    steps = 0;
    stop = Atomic.get s.sstop;
    shared = Some s;
    is_child = true;
  }

let join parent child =
  if not child.is_child then invalid_arg "Budget.join: not a forked token";
  parent.steps <-
    (if parent.steps > max_int - child.steps then max_int
     else parent.steps + child.steps);
  (match child.stop with
  | Some r when parent.stop = None -> parent.stop <- Some r
  | _ -> ());
  (* a sibling may have tripped after this child completed *)
  match parent.shared with
  | Some s when parent.stop = None -> (
      match Atomic.get s.sstop with
      | Some r -> parent.stop <- Some r
      | None -> ())
  | _ -> ()

let string_of_reason = function
  | Deadline -> "deadline"
  | Steps -> "steps"
  | Cancelled -> "cancelled"

let string_of_status = function
  | Complete -> "complete"
  | Exhausted r -> Printf.sprintf "exhausted (%s)" (string_of_reason r)
