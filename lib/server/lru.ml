type stats = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;
  bytes : int;
  capacity_bytes : int;
}

type 'v entry = { value : 'v; weight : int; mutable last_use : int }

type ('k, 'v) t = {
  capacity : int;
  weight : 'v -> int;
  table : ('k, 'v entry) Hashtbl.t;
  lock : Mutex.t;
  mutable clock : int;  (** monotone use counter; orders recency *)
  mutable bytes : int;
  (* atomics, not lock-guarded ints: the metrics registry samples these
     through lock-free probes while workers mutate them under the lock,
     so both views read the very same cells *)
  hits : int Atomic.t;
  misses : int Atomic.t;
  evictions : int Atomic.t;
}

let create ~capacity_bytes ~weight () =
  if capacity_bytes < 0 then invalid_arg "Lru.create: negative capacity";
  {
    capacity = capacity_bytes;
    weight;
    table = Hashtbl.create 16;
    lock = Mutex.create ();
    clock = 0;
    bytes = 0;
    hits = Atomic.make 0;
    misses = Atomic.make 0;
    evictions = Atomic.make 0;
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let tick t =
  t.clock <- t.clock + 1;
  t.clock

let find t k =
  locked t (fun () ->
      match Hashtbl.find_opt t.table k with
      | Some e ->
          e.last_use <- tick t;
          ignore (Atomic.fetch_and_add t.hits 1);
          Some e.value
      | None ->
          ignore (Atomic.fetch_and_add t.misses 1);
          None)

(* caller holds the lock *)
let evict_lru t =
  let victim = ref None in
  Hashtbl.iter
    (fun k e ->
      match !victim with
      | Some (_, oldest) when oldest.last_use <= e.last_use -> ()
      | _ -> victim := Some (k, e))
    t.table;
  match !victim with
  | None -> ()
  | Some (k, e) ->
      Hashtbl.remove t.table k;
      t.bytes <- t.bytes - e.weight;
      ignore (Atomic.fetch_and_add t.evictions 1)

let put t k v =
  locked t (fun () ->
      let w = t.weight v in
      if w < 0 then invalid_arg "Lru: negative weight";
      (match Hashtbl.find_opt t.table k with
      | Some old ->
          Hashtbl.remove t.table k;
          t.bytes <- t.bytes - old.weight
      | None -> ());
      if w <= t.capacity then begin
        Hashtbl.replace t.table k { value = v; weight = w; last_use = tick t };
        t.bytes <- t.bytes + w;
        while t.bytes > t.capacity do
          evict_lru t
        done
      end)

(* (key, value) pairs, least-recently-used first *)
let by_recency entries =
  List.map
    (fun (k, e) -> (k, e.value))
    (List.sort (fun (_, a) (_, b) -> compare a.last_use b.last_use) entries)

let remove_if t pred =
  locked t (fun () ->
      let doomed =
        Hashtbl.fold (fun k e acc -> if pred k then (k, e) :: acc else acc) t.table []
      in
      List.iter
        (fun (k, (e : _ entry)) ->
          Hashtbl.remove t.table k;
          t.bytes <- t.bytes - e.weight)
        doomed;
      by_recency doomed)

let bindings t =
  locked t (fun () -> by_recency (Hashtbl.fold (fun k e acc -> (k, e) :: acc) t.table []))

let hits t = Atomic.get t.hits
let misses t = Atomic.get t.misses
let evictions t = Atomic.get t.evictions

let stats t =
  locked t (fun () ->
      {
        hits = Atomic.get t.hits;
        misses = Atomic.get t.misses;
        evictions = Atomic.get t.evictions;
        entries = Hashtbl.length t.table;
        bytes = t.bytes;
        capacity_bytes = t.capacity;
      })
