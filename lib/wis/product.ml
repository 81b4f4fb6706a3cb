module D = Phom_graph.Digraph
module BM = Phom_graph.Bitmatrix
module Simmat = Phom_sim.Simmat

type t = { graph : Ungraph.t; pairs : (int * int) array }

let pair_ok ~g1 ~tc2 ~mat ~xi v u =
  Simmat.get mat v u >= xi && ((not (D.has_edge g1 v v)) || BM.get tc2 u u)

let edge_ok ~injective ~g1 ~tc2 (v1, u1) (v2, u2) =
  v1 <> v2
  && ((not injective) || u1 <> u2)
  && ((not (D.has_edge g1 v1 v2)) || BM.get tc2 u1 u2)
  && ((not (D.has_edge g1 v2 v1)) || BM.get tc2 u2 u1)

let build ?(injective = false) ?weights ~g1 ~tc2 ~mat ~xi () =
  let n1 = D.n g1 and n2 = Simmat.n2 mat in
  if Simmat.n1 mat <> n1 then invalid_arg "Product.build: mat/g1 size mismatch";
  if BM.rows tc2 <> n2 then invalid_arg "Product.build: tc2/mat size mismatch";
  let w1 =
    match weights with
    | None -> Array.make n1 1.
    | Some w ->
        if Array.length w <> n1 then invalid_arg "Product.build: weights length";
        w
  in
  let pairs = ref [] in
  for v = n1 - 1 downto 0 do
    for u = n2 - 1 downto 0 do
      if pair_ok ~g1 ~tc2 ~mat ~xi v u then pairs := (v, u) :: !pairs
    done
  done;
  let pairs = Array.of_list !pairs in
  let np = Array.length pairs in
  let edges = ref [] in
  for i = 0 to np - 1 do
    for j = i + 1 to np - 1 do
      if edge_ok ~injective ~g1 ~tc2 pairs.(i) pairs.(j) then edges := (i, j) :: !edges
    done
  done;
  let node_weights =
    Array.map (fun (v, u) -> w1.(v) *. Simmat.get mat v u) pairs
  in
  { graph = Ungraph.create ~weights:node_weights np !edges; pairs }

let mapping_of_clique t clique =
  List.sort compare (List.map (fun i -> t.pairs.(i)) clique)
