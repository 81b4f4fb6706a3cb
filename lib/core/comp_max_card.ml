module ML = Matching_list

let initial_caps h =
  (* every G2 node occurring as a candidate gets capacity 1 *)
  ML.fold (fun _ u acc -> ML.Int_map.add u 1 acc) h ML.Int_map.empty

let run_on ?(injective = false) ?budget ?capacities ?(pick = `Best_sim) h0 =
  let budget =
    match budget with Some b -> b | None -> Phom_graph.Budget.unlimited ()
  in
  let mode =
    if injective then
      `Capacitated (Option.value capacities ~default:(initial_caps h0))
    else `Free
  in
  let rounds = Phom_obs.Obs.counter "phom_solver_greedy_rounds_total" in
  let rec loop best =
    if ML.size h0 <= Mapping.size best || Phom_graph.Budget.exhausted budget then
      best
    else begin
      Phom_obs.Obs.incr rounds;
      let { Greedy.sigma; conflict } =
        Greedy.run ~budget ~pick ~mode h0
      in
      let best = if Mapping.size sigma > Mapping.size best then sigma else best in
      (* [conflict] is non-empty whenever [h0] is, so the loop shrinks
         [h0]; the guard is pure defensive programming *)
      if conflict = [] then best
      else begin
        ML.remove_pairs h0 conflict;
        loop best
      end
    end
  in
  loop []

let run ?injective ?budget ?capacities ?pick t =
  Phom_obs.Obs.span "comp_max_card" (fun () ->
      run_on ?injective ?budget ?capacities ?pick
        (ML.of_candidates (ML.universe t)))
