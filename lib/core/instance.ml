module D = Phom_graph.Digraph
module BM = Phom_graph.Bitmatrix
module TC = Phom_graph.Transitive_closure
module Simmat = Phom_sim.Simmat

type t = {
  g1 : D.t;
  g2 : D.t;
  mat : Simmat.t;
  xi : float;
  tc2 : BM.t;
  cands_memo : int array array option Atomic.t;
}

let make ?budget ?tc2 ~g1 ~g2 ~mat ~xi () =
  if Simmat.n1 mat <> D.n g1 || Simmat.n2 mat <> D.n g2 then
    invalid_arg "Instance.make: mat dimensions do not match the graphs";
  if not (xi >= 0. && xi <= 1.) then invalid_arg "Instance.make: xi outside [0,1]";
  let tc2 =
    match tc2 with
    | Some m ->
        if BM.rows m <> D.n g2 || BM.cols m <> D.n g2 then
          invalid_arg "Instance.make: tc2 dimensions do not match g2";
        m
    | None -> TC.compute ?budget g2
  in
  { g1; g2; mat; xi; tc2; cands_memo = Atomic.make None }

let compute_candidates t =
  let base = Simmat.candidates t.mat ~xi:t.xi in
  Array.mapi
    (fun v row ->
      if D.has_edge t.g1 v v then
        Array.of_list
          (List.filter (fun u -> BM.get t.tc2 u u) (Array.to_list row))
      else row)
    base

let candidates t =
  match Atomic.get t.cands_memo with
  | Some c -> c
  | None ->
      let c = Phom_obs.Obs.span "candidates" (fun () -> compute_candidates t) in
      let pairs = Array.fold_left (fun acc r -> acc + Array.length r) 0 c in
      Phom_obs.Obs.observe
        (Phom_obs.Obs.histogram
           ~buckets:[| 1.; 4.; 16.; 64.; 256.; 1024.; 4096.; 16384. |]
           "phom_solver_candidate_pairs")
        (float_of_int pairs);
      (* concurrent computes produce equal tables; whichever lands is fine *)
      Atomic.set t.cands_memo (Some c);
      c

let preset_candidates t c =
  if Array.length c <> D.n t.g1 then
    invalid_arg "Instance.preset_candidates: wrong number of rows";
  Atomic.set t.cands_memo (Some c)

let qual_card t m = Mapping.qual_card ~n1:(D.n t.g1) m

let qual_sim ~weights t m = Mapping.qual_sim ~weights ~mat:t.mat m

let is_valid ?(injective = false) t m =
  if injective then Mapping.is_one_one_phom ~g1:t.g1 ~tc2:t.tc2 ~mat:t.mat ~xi:t.xi m
  else Mapping.is_phom ~g1:t.g1 ~tc2:t.tc2 ~mat:t.mat ~xi:t.xi m
