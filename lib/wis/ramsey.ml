module Bitset = Phom_graph.Bitset
module Budget = Phom_graph.Budget

let pick_pivot g subset =
  (* max degree within [subset] *)
  let best = ref (-1) and best_deg = ref (-1) in
  Bitset.iter
    (fun v ->
      let nb = Bitset.copy (Ungraph.neighbors g v) in
      Bitset.inter_into ~into:nb subset;
      let d = Bitset.count nb in
      if d > !best_deg then begin
        best := v;
        best_deg := d
      end)
    subset;
  !best

let split g subset =
  let v = pick_pivot g subset in
  let nbrs = Bitset.copy (Ungraph.neighbors g v) in
  let inside = Bitset.copy subset in
  Bitset.inter_into ~into:inside nbrs;
  (* non-neighbours of v inside the subset, minus v itself *)
  let outside = Bitset.copy subset in
  Bitset.diff_into ~into:outside nbrs;
  Bitset.remove outside v;
  (v, inside, outside)

let rec ramsey_budgeted budget g subset =
  (* an exhausted budget makes unexplored subtrees contribute the empty
     clique/IS pair; the combination step below still yields a valid clique
     and a valid independent set (a pivot alone is both), so truncation
     degrades quality, never validity *)
  if Bitset.is_empty subset || not (Budget.tick budget) then ([], [])
  else begin
    let v, inside, outside = split g subset in
    let c1, i1 = ramsey_budgeted budget g inside in
    let c2, i2 = ramsey_budgeted budget g outside in
    let clique = if List.length c1 + 1 >= List.length c2 then v :: c1 else c2 in
    let indep = if List.length i2 + 1 >= List.length i1 then v :: i2 else i1 in
    (clique, indep)
  end

let m_calls = lazy (Phom_obs.Obs.counter "phom_solver_ramsey_calls_total")
let m_rounds = lazy (Phom_obs.Obs.counter "phom_solver_removal_rounds_total")

let ramsey ?budget g subset =
  Phom_obs.Obs.incr (Lazy.force m_calls);
  let budget = match budget with Some b -> b | None -> Budget.unlimited () in
  ramsey_budgeted budget g subset

let removal ~keep ?budget g =
  (* Repeatedly run ramsey, drop one of the two sets from the graph, and keep
     the best instance of the other. [keep] selects which set is collected:
     `Clique removes independent sets (ISRemoval), `Indep removes cliques
     (CliqueRemoval). *)
  let budget = match budget with Some b -> b | None -> Budget.unlimited () in
  let remaining = Bitset.full (Ungraph.n g) in
  let best = ref [] in
  let continue = ref true in
  while !continue do
    if Bitset.is_empty remaining || Budget.exhausted budget then
      continue := false
    else begin
      Phom_obs.Obs.incr (Lazy.force m_rounds);
      Phom_obs.Obs.incr (Lazy.force m_calls);
      let clique, indep = ramsey_budgeted budget g remaining in
      let collected, removed =
        match keep with `Clique -> (clique, indep) | `Indep -> (indep, clique)
      in
      if List.length collected > List.length !best then best := collected;
      List.iter (Bitset.remove remaining) removed;
      (* ramsey on a non-empty set always returns a non-empty clique and a
         non-empty independent set (the pivot belongs to one of each), so
         the loop strictly shrinks [remaining] *)
      if removed = [] then continue := false
    end
  done;
  List.sort compare !best

let clique_removal ?budget g = removal ~keep:`Indep ?budget g
let is_removal ?budget g = removal ~keep:`Clique ?budget g
