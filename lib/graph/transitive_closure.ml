let compute ?budget g =
  let budget = match budget with Some b -> b | None -> Budget.unlimited () in
  let n = Digraph.n g in
  let scc = Scc.compute g in
  let members = Scc.members scc in
  let start, succ = Scc.successors g scc and cyclic = Scc.cyclic g scc in
  (* each component's row is built at its lowest member and copied to the
     others *)
  let first = Array.make scc.Scc.count 0 in
  for u = n - 1 downto 0 do
    first.(scc.Scc.comp.(u)) <- u
  done;
  let t = Bitmatrix.create ~rows:n ~cols:n in
  (* components are numbered in reverse topological order: an edge c→d between
     distinct components has c > d, so sweeping c = 0, 1, ... finishes every
     successor's row before a predecessor reads it. A cyclic successor's row
     already holds its members; an acyclic one is a single node whose bit is
     set. One tick per distinct successor, one per component. *)
  let build c =
    let r = first.(c) in
    for i = start.(c) to start.(c + 1) - 1 do
      let d = succ.(i) in
      Budget.tick_exn budget;
      Bitmatrix.or_row_into t ~dst:r ~src:first.(d);
      if not cyclic.(d) then Bitmatrix.set t r first.(d) true
    done;
    Budget.tick_exn budget;
    if cyclic.(c) then List.iter (fun u -> Bitmatrix.set t r u true) members.(c)
  in
  let share c =
    let r = first.(c) in
    List.iter
      (fun u -> if u <> r then Bitmatrix.or_row ~from:t ~src:r ~into:t ~dst:u)
      members.(c)
  in
  (* An exhausted budget stops the sweep: the component being built shares
     its partial row, later ones stay empty. The matrix under-approximates
     reachability, which every client treats conservatively (fewer candidate
     paths, never a spurious one). *)
  let c = ref 0 in
  (try
     while !c < scc.Scc.count do
       build !c;
       share !c;
       incr c
     done
   with Budget.Exhausted_budget -> share !c);
  t

let graph ?budget g =
  let t = compute ?budget g in
  let edge_list = ref [] in
  for u = 0 to Digraph.n g - 1 do
    Bitmatrix.iter_row (fun v -> edge_list := (u, v) :: !edge_list) t u
  done;
  Digraph.make ~labels:(Digraph.labels g) ~edges:!edge_list

let naive g =
  let n = Digraph.n g in
  let t = Bitmatrix.create ~rows:n ~cols:n in
  for u = 0 to n - 1 do
    Bitset.iter (fun v -> Bitmatrix.set t u v true) (Traversal.reachable_nonempty g u)
  done;
  t
