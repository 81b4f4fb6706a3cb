let compute ?budget ~k g =
  let budget = match budget with Some b -> b | None -> Budget.unlimited () in
  let n = Digraph.n g in
  let m = Bitmatrix.create ~rows:n ~cols:n in
  (* per node u, a frontier BFS capped at depth k with a bitset visited; u
     starts unvisited, so its bit is set only when a cycle returns to it.
     One budget tick per frontier node expanded (u itself first);
     exhaustion stops the sweep, leaving an under-approximation (missing
     reachability bits, never spurious ones). *)
  (try
     for u = 0 to n - 1 do
       let visited = Bitset.create n in
       let frontier = ref [ u ] and depth = ref 0 in
       while !depth < k && !frontier <> [] do
         incr depth;
         let next = ref [] in
         List.iter
           (fun x ->
             Budget.tick_exn budget;
             Array.iter
               (fun w ->
                 if not (Bitset.mem visited w) then begin
                   Bitset.add visited w;
                   Bitmatrix.set m u w true;
                   next := w :: !next
                 end)
               (Digraph.succ g x))
           !frontier;
         frontier := !next
       done
     done
   with Budget.Exhausted_budget -> ());
  m

(* the single entry point artifact caches key on: one function, one key
   shape (graph, hops), covering both the bounded and the unbounded
   semantics *)
let relation ?budget ?hops g =
  match hops with
  | None -> Transitive_closure.compute ?budget g
  | Some k -> compute ?budget ~k g

let distances_within ~k g v =
  let d = Traversal.distances g v in
  (* distances gives hop counts with d(v)=0; non-empty-path semantics needs
     the self distance via a cycle instead *)
  let n = Digraph.n g in
  let out = Array.make n (-1) in
  for u = 0 to n - 1 do
    if u <> v && d.(u) > 0 && d.(u) <= k then out.(u) <- d.(u)
  done;
  (* self: shortest cycle through v *)
  (match Traversal.shortest_path g v v with
  | Some path when List.length path - 1 <= k -> out.(v) <- List.length path - 1
  | _ -> ());
  out
