(* A fixed-size domain pool on stdlib primitives.

   Architecture: [create] spawns [size - 1] worker domains that block on a
   mutex-protected queue of thunks. A batch ([map]) does not enqueue one
   thunk per item; it enqueues up to [size - 1] copies of a single "helper"
   thunk that repeatedly claims the next unclaimed item index from an
   [Atomic.t] counter and runs it — work-stealing by counter, so load
   balances automatically when items have uneven cost. The calling domain
   runs the same helper itself, which makes nested batches deadlock-free:
   a batch's caller can always finish the batch alone, workers never block
   inside a task, and helpers left over from a finished batch exit
   immediately (the counter is already past the end).

   Results and exceptions land in per-index slots written by exactly one
   domain each; the caller observes them only after the batch's remaining
   counter (an atomic) reaches zero, which establishes the happens-before
   edge required by the OCaml memory model. *)

module Obs = Phom_obs.Obs

type t = {
  size : int;
  queue : (unit -> unit) Queue.t;
  lock : Mutex.t;
  nonempty : Condition.t;
  mutable stopping : bool;
  mutable workers : unit Domain.t list;
}

(* pool-wide instruments; gauges are balanced (+1/-1 around each queue
   mutation and task run), so pools created and destroyed by tests leave
   them at zero *)
let m_queue_depth = Obs.gauge "phom_pool_queue_depth"
let m_inflight = Obs.gauge "phom_pool_jobs_inflight"
let m_jobs = Obs.counter "phom_pool_jobs_total"
let m_submit_wait = Obs.histogram "phom_pool_submit_wait_seconds"

let busy_counter id =
  Obs.counter ~labels:[ ("worker", string_of_int id) ]
    "phom_pool_worker_busy_us_total"

let rec worker_loop t id busy =
  Mutex.lock t.lock;
  let task =
    let rec wait () =
      if t.stopping then None
      else
        match Queue.take_opt t.queue with
        | Some _ as task ->
            Obs.add_gauge m_queue_depth (-1);
            task
        | None ->
            Condition.wait t.nonempty t.lock;
            wait ()
    in
    wait ()
  in
  Mutex.unlock t.lock;
  match task with
  | None -> ()
  | Some task ->
      (* helpers confine exceptions to their batch's error slots; this
         catch-all only shields the pool from a helper's own bugs *)
      let t0 = Unix.gettimeofday () in
      (try task () with _ -> ());
      Obs.add busy (int_of_float ((Unix.gettimeofday () -. t0) *. 1e6));
      worker_loop t id busy

let create ?domains () =
  let size =
    match domains with
    | None -> min 64 (max 1 (Domain.recommended_domain_count ()))
    | Some d when d < 1 -> invalid_arg "Pool.create: domains must be >= 1"
    | Some d -> min 64 d
  in
  let t =
    {
      size;
      queue = Queue.create ();
      lock = Mutex.create ();
      nonempty = Condition.create ();
      stopping = false;
      workers = [];
    }
  in
  t.workers <-
    List.init (size - 1) (fun i ->
        Domain.spawn (fun () -> worker_loop t i (busy_counter i)));
  t

let size t = if t.stopping then 1 else t.size

let shutdown t =
  Mutex.lock t.lock;
  t.stopping <- true;
  Condition.broadcast t.nonempty;
  (* tasks still queued (e.g. unstarted futures) would otherwise never run:
     drain them here and run them in the caller so [await] stays live *)
  let leftovers = ref [] in
  Queue.iter (fun task -> leftovers := task :: !leftovers) t.queue;
  Obs.add_gauge m_queue_depth (-Queue.length t.queue);
  Queue.clear t.queue;
  Mutex.unlock t.lock;
  List.iter Domain.join t.workers;
  t.workers <- [];
  List.iter (fun task -> try task () with _ -> ()) (List.rev !leftovers)

let with_pool ?domains f =
  let t = create ?domains () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let map t f items =
  let n = Array.length items in
  if n = 0 then [||]
  else if size t <= 1 || n = 1 then Array.map f items
  else begin
    let results = Array.make n None in
    let errors = Array.make n None in
    let next = Atomic.make 0 in
    let remaining = Atomic.make n in
    let run_one i =
      Obs.incr m_jobs;
      Obs.add_gauge m_inflight 1;
      (match f items.(i) with
      | v -> results.(i) <- Some v
      | exception e -> errors.(i) <- Some e);
      Obs.add_gauge m_inflight (-1);
      ignore (Atomic.fetch_and_add remaining (-1))
    in
    let helper () =
      let rec go () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          run_one i;
          go ()
        end
      in
      go ()
    in
    let helpers = min (t.size - 1) (n - 1) in
    Mutex.lock t.lock;
    for _ = 1 to helpers do
      Queue.add helper t.queue;
      Obs.add_gauge m_queue_depth 1
    done;
    Condition.broadcast t.nonempty;
    Mutex.unlock t.lock;
    helper ();
    (* the caller ran out of unclaimed items; wait for stragglers — spin
       briefly (tasks are usually coarse), then back off politely *)
    let spins = ref 0 in
    while Atomic.get remaining > 0 do
      incr spins;
      if !spins < 10_000 then Domain.cpu_relax () else Unix.sleepf 0.0002
    done;
    Array.iter (function Some e -> raise e | None -> ()) errors;
    Array.map (function Some v -> v | None -> assert false) results
  end

let map_list t f items = Array.to_list (map t f (Array.of_list items))

(* Single-task submission, used by the matching daemon: a request becomes
   one pool job, bounded by its own budget rather than the loop's. A
   future's state cell is guarded by its own mutex — the submitting domain
   and the worker that runs the task are the only parties. *)

type 'a future = {
  flock : Mutex.t;
  fcond : Condition.t;
  mutable state : 'a future_state;
}

and 'a future_state = Pending | Done of 'a | Raised of exn

let submit t f =
  let fut = { flock = Mutex.create (); fcond = Condition.create (); state = Pending } in
  let submitted = Unix.gettimeofday () in
  let run () =
    Obs.observe m_submit_wait (Unix.gettimeofday () -. submitted);
    Obs.incr m_jobs;
    Obs.add_gauge m_inflight 1;
    let outcome = match f () with v -> Done v | exception e -> Raised e in
    Obs.add_gauge m_inflight (-1);
    Mutex.lock fut.flock;
    fut.state <- outcome;
    Condition.broadcast fut.fcond;
    Mutex.unlock fut.flock
  in
  if size t <= 1 then begin
    (* sequential pool: the task runs right here, [await] just unwraps *)
    run ();
    fut
  end
  else begin
    Mutex.lock t.lock;
    if t.stopping then begin
      Mutex.unlock t.lock;
      run ()
    end
    else begin
      Queue.add run t.queue;
      Obs.add_gauge m_queue_depth 1;
      Condition.signal t.nonempty;
      Mutex.unlock t.lock
    end;
    fut
  end

let await fut =
  Mutex.lock fut.flock;
  while (match fut.state with Pending -> true | _ -> false) do
    Condition.wait fut.fcond fut.flock
  done;
  let outcome = fut.state in
  Mutex.unlock fut.flock;
  match outcome with
  | Done v -> v
  | Raised e -> raise e
  | Pending -> assert false
