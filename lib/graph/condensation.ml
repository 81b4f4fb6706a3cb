type t = {
  graph : Digraph.t;
  comp_of_node : int array;
  members : int list array;
  cyclic : bool array;
}

let compress g =
  let scc = Scc.compute g in
  let count = scc.Scc.count in
  let members = Scc.members scc in
  let cyclic = Scc.cyclic g scc in
  (* Component-level reachability: same reverse-topological sweep as the
     transitive closure, but over component ids. *)
  let start, succ = Scc.successors g scc in
  let reach = Array.init count (fun _ -> Bitset.create count) in
  let edge_list = ref [] in
  for c = 0 to count - 1 do
    for i = start.(c) to start.(c + 1) - 1 do
      Bitset.add reach.(c) succ.(i);
      Bitset.union_into ~into:reach.(c) reach.(succ.(i))
    done;
    Bitset.iter (fun d -> edge_list := (c, d) :: !edge_list) reach.(c);
    if cyclic.(c) then edge_list := (c, c) :: !edge_list
  done;
  let labels = Array.init count (fun c -> "bag:" ^ string_of_int c) in
  {
    graph = Digraph.make ~labels ~edges:!edge_list;
    comp_of_node = scc.Scc.comp;
    members;
    cyclic;
  }

let bag t g2 node = List.map (Digraph.label g2) t.members.(node)

let capacity t node = List.length t.members.(node)
