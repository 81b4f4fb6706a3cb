module D = Phom_graph.Digraph
module BM = Phom_graph.Bitmatrix

let trim ~g1 ~tc2 ~v ~u h moved =
  let cannot_reach u' = not (BM.get tc2 u' u)
  and unreachable u' = not (BM.get tc2 u u') in
  Array.iter (fun v' -> Matching_list.prune h moved v' cannot_reach) (D.pred g1 v);
  Array.iter (fun v' -> Matching_list.prune h moved v' unreachable) (D.succ g1 v)
