type t = {
  node_labels : string array;
  succs : int array array;
  preds : int array array;
  m : int;
}

let sort_dedup arr =
  Array.sort compare arr;
  let n = Array.length arr in
  if n = 0 then arr
  else begin
    let out = ref [ arr.(0) ] in
    for i = 1 to n - 1 do
      if arr.(i) <> arr.(i - 1) then out := arr.(i) :: !out
    done;
    let a = Array.of_list !out in
    Array.sort compare a;
    a
  end

let make ~labels ~edges =
  let n = Array.length labels in
  List.iter
    (fun (u, v) ->
      if u < 0 || u >= n || v < 0 || v >= n then
        invalid_arg "Digraph.make: edge endpoint out of range")
    edges;
  let out_lists = Array.make n [] and in_lists = Array.make n [] in
  List.iter
    (fun (u, v) ->
      out_lists.(u) <- v :: out_lists.(u);
      in_lists.(v) <- u :: in_lists.(v))
    edges;
  let succs = Array.map (fun l -> sort_dedup (Array.of_list l)) out_lists in
  let preds = Array.map (fun l -> sort_dedup (Array.of_list l)) in_lists in
  let m = Array.fold_left (fun acc a -> acc + Array.length a) 0 succs in
  { node_labels = Array.copy labels; succs; preds; m }

let empty = { node_labels = [||]; succs = [||]; preds = [||]; m = 0 }

let n g = Array.length g.node_labels
let nb_edges g = g.m

let check g v =
  if v < 0 || v >= n g then invalid_arg "Digraph: node out of range"

let label g v =
  check g v;
  g.node_labels.(v)

let labels g = Array.copy g.node_labels

let succ g v =
  check g v;
  g.succs.(v)

let pred g v =
  check g v;
  g.preds.(v)

let out_degree g v = Array.length (succ g v)
let in_degree g v = Array.length (pred g v)
let degree g v = out_degree g v + in_degree g v

let mem_sorted arr x =
  let lo = ref 0 and hi = ref (Array.length arr - 1) and found = ref false in
  while (not !found) && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    if arr.(mid) = x then found := true
    else if arr.(mid) < x then lo := mid + 1
    else hi := mid - 1
  done;
  !found

let has_edge g u v =
  check g u;
  check g v;
  mem_sorted g.succs.(u) v

let iter_edges f g =
  Array.iteri (fun u vs -> Array.iter (fun v -> f u v) vs) g.succs

let fold_edges f g init =
  let acc = ref init in
  iter_edges (fun u v -> acc := f u v !acc) g;
  !acc

let edges g = List.rev (fold_edges (fun u v acc -> (u, v) :: acc) g [])

let avg_degree g = if n g = 0 then 0. else float_of_int g.m /. float_of_int (n g)

let max_degree g =
  let best = ref 0 in
  for v = 0 to n g - 1 do
    if degree g v > !best then best := degree g v
  done;
  !best

let reverse g =
  {
    node_labels = g.node_labels;
    succs = Array.map Array.copy g.preds;
    preds = Array.map Array.copy g.succs;
    m = g.m;
  }

let map_labels f g =
  { g with node_labels = Array.mapi f g.node_labels }

let induced g nodes =
  let keep = sort_dedup (Array.of_list nodes) in
  Array.iter (check g) keep;
  let k = Array.length keep in
  let new_of_old = Array.make (n g) (-1) in
  Array.iteri (fun i v -> new_of_old.(v) <- i) keep;
  let labels = Array.map (fun v -> g.node_labels.(v)) keep in
  let edge_list = ref [] in
  Array.iteri
    (fun i v ->
      Array.iter
        (fun w -> if new_of_old.(w) >= 0 then edge_list := (i, new_of_old.(w)) :: !edge_list)
        g.succs.(v))
    keep;
  ignore k;
  (make ~labels ~edges:!edge_list, keep)

let add_edges g extra =
  make ~labels:g.node_labels ~edges:(List.rev_append extra (edges g))

(* single-edge edits share the untouched adjacency rows with the original
   graph; only the two affected rows (and the outer arrays) are fresh *)

let insert_sorted arr x =
  let n = Array.length arr in
  let out = Array.make (n + 1) x in
  let i = ref 0 in
  while !i < n && arr.(!i) < x do
    out.(!i) <- arr.(!i);
    incr i
  done;
  Array.blit arr !i out (!i + 1) (n - !i);
  out

let delete_sorted arr x =
  let out = Array.make (Array.length arr - 1) 0 in
  let j = ref 0 in
  Array.iter
    (fun y ->
      if y <> x then begin
        out.(!j) <- y;
        incr j
      end)
    arr;
  out

let add_edge g u v =
  check g u;
  check g v;
  if mem_sorted g.succs.(u) v then
    invalid_arg "Digraph.add_edge: edge already present";
  let succs = Array.copy g.succs and preds = Array.copy g.preds in
  succs.(u) <- insert_sorted g.succs.(u) v;
  preds.(v) <- insert_sorted g.preds.(v) u;
  { g with succs; preds; m = g.m + 1 }

let remove_edge g u v =
  check g u;
  check g v;
  if not (mem_sorted g.succs.(u) v) then
    invalid_arg "Digraph.remove_edge: no such edge";
  let succs = Array.copy g.succs and preds = Array.copy g.preds in
  succs.(u) <- delete_sorted g.succs.(u) v;
  preds.(v) <- delete_sorted g.preds.(v) u;
  { g with succs; preds; m = g.m - 1 }

let disjoint_union g1 g2 =
  let n1 = n g1 in
  let labels = Array.append g1.node_labels g2.node_labels in
  let e2 = List.map (fun (u, v) -> (u + n1, v + n1)) (edges g2) in
  make ~labels ~edges:(List.rev_append e2 (edges g1))

let equal a b =
  a.node_labels = b.node_labels && a.succs = b.succs

let pp ppf g =
  Format.fprintf ppf "@[<v>digraph (%d nodes, %d edges)" (n g) (nb_edges g);
  for v = 0 to n g - 1 do
    Format.fprintf ppf "@,%d [%s] ->" v g.node_labels.(v);
    Array.iter (fun w -> Format.fprintf ppf " %d" w) g.succs.(v)
  done;
  Format.fprintf ppf "@]"
