module ML = Matching_list
module D = Phom_graph.Digraph
module Simmat = Phom_sim.Simmat

let pair_weight (t : Instance.t) weights v u = weights.(v) *. Simmat.get t.mat v u

let weight_groups (t : Instance.t) weights cands =
  let n1 = D.n t.g1 and n2 = D.n t.g2 in
  let w_max = ref 0. in
  Array.iteri
    (fun v row ->
      Array.iter (fun u -> w_max := Float.max !w_max (pair_weight t weights v u)) row)
    cands;
  if !w_max <= 0. then []
  else begin
    let total = max 2 (n1 * n2) in
    let classes = max 1 (int_of_float (ceil (log (float_of_int total) /. log 2.))) in
    let floor_w = !w_max /. float_of_int total in
    let groups = Array.make classes [] in
    Array.iteri
      (fun v row ->
        Array.iter
          (fun u ->
            let w = pair_weight t weights v u in
            if w >= floor_w then begin
              let i =
                min (classes - 1) (max 0 (int_of_float (log (!w_max /. w) /. log 2.)))
              in
              groups.(i) <- (v, u) :: groups.(i)
            end)
          row)
      cands;
    Array.to_list groups |> List.filter (fun g -> g <> [])
  end

let run ?(injective = false) ?budget ?weights ?pick (t : Instance.t) =
  let budget =
    match budget with Some b -> b | None -> Phom_graph.Budget.unlimited ()
  in
  let weights =
    match weights with None -> Array.make (D.n t.g1) 1. | Some w -> w
  in
  if Array.length weights <> D.n t.g1 then
    invalid_arg "Comp_max_sim.run: weights length mismatch";
  Phom_obs.Obs.span "comp_max_sim" (fun () ->
      let cands = Instance.candidates t and u = ML.universe t in
      let groups = weight_groups t weights cands in
      Phom_obs.Obs.add
        (Phom_obs.Obs.counter "phom_solver_sim_groups_total")
        (List.length groups);
      let candidates_lists = ML.of_candidates u :: List.map (ML.of_pairs u) groups in
      let score = Instance.qual_sim ~weights t in
      (* the weight groups share one token; once it trips, the remaining
         groups are skipped and the best mapping scored so far is returned *)
      List.fold_left
        (fun best h ->
          if Phom_graph.Budget.exhausted budget then best
          else begin
            let m = Comp_max_card.run_on ~injective ~budget ?pick h in
            if score m > score best then m else best
          end)
        [] candidates_lists)
