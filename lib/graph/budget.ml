type reason = Deadline | Steps | Cancelled

type status = Complete | Exhausted of reason

type t = {
  deadline : float;  (* absolute gettimeofday; [infinity] = none *)
  max_steps : int;  (* [max_int] = none *)
  cancel_hook : (unit -> bool) option;
  needs_poll : bool;  (* deadline or hook present: worth polling *)
  mutable steps : int;
  mutable stop : reason option;
}

exception Exhausted_budget

let make ~deadline ~max_steps ~cancel_hook =
  {
    deadline;
    max_steps;
    cancel_hook;
    needs_poll = deadline < infinity || Option.is_some cancel_hook;
    steps = 0;
    stop = None;
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

let poll t =
  (if t.stop = None then
     if t.deadline < infinity && Unix.gettimeofday () > t.deadline then
       t.stop <- Some Deadline
     else
       match t.cancel_hook with
       | Some hook when hook () -> t.stop <- Some Cancelled
       | _ -> ());
  t.stop = None

let tick t =
  match t.stop with
  | Some _ -> false
  | None ->
      if t.steps >= t.max_steps then begin
        t.stop <- Some Steps;
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

(* an earlier trip's reason wins *)
let cancel t = if t.stop = None then t.stop <- Some Cancelled

let status t = match t.stop with None -> Complete | Some r -> Exhausted r

let why t = t.stop

let steps_used t = t.steps

let string_of_reason = function
  | Deadline -> "deadline"
  | Steps -> "steps"
  | Cancelled -> "cancelled"

let string_of_status = function
  | Complete -> "complete"
  | Exhausted r -> Printf.sprintf "exhausted (%s)" (string_of_reason r)
