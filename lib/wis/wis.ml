module Bitset = Phom_graph.Bitset
module Budget = Phom_graph.Budget

let max_independent_set ?budget g = Ramsey.clique_removal ?budget g
let max_clique ?budget g = Ramsey.is_removal ?budget g

let weight_classes g =
  let n = Ungraph.n g in
  let w_max = ref 0. in
  for v = 0 to n - 1 do
    w_max := Float.max !w_max (Ungraph.weight g v)
  done;
  if !w_max <= 0. then []
  else begin
    let classes = max 1 (int_of_float (ceil (log (float_of_int (max 2 n)) /. log 2.))) in
    let buckets = Array.init classes (fun _ -> Bitset.create n) in
    for v = 0 to n - 1 do
      let w = Ungraph.weight g v in
      if w >= !w_max /. float_of_int n then begin
        (* class i holds weights in (W/2^{i+1}, W/2^i]; clamp the tail *)
        let ratio = !w_max /. w in
        let i = min (classes - 1) (max 0 (int_of_float (log ratio /. log 2.))) in
        Bitset.add buckets.(i) v
      end
    done;
    Array.to_list buckets |> List.filter (fun b -> not (Bitset.is_empty b))
  end

let heaviest_node g =
  let best = ref (-1) and best_w = ref neg_infinity in
  for v = 0 to Ungraph.n g - 1 do
    if Ungraph.weight g v > !best_w then begin
      best := v;
      best_w := Ungraph.weight g v
    end
  done;
  if !best < 0 then [] else [ !best ]

let weighted ?budget solve g =
  (* the weight classes share one token: once it trips, the remaining
     classes contribute nothing, and the heaviest-node fallback (always
     computed, cheap) guarantees a non-trivial valid answer *)
  let solve_class bucket =
    match budget with
    | Some b when Budget.exhausted b -> []
    | _ ->
        let sub, old_of_new = Ungraph.induced g bucket in
        List.map (fun v -> old_of_new.(v)) (solve ?budget sub)
  in
  let candidates = heaviest_node g :: List.map solve_class (weight_classes g) in
  let best =
    List.fold_left
      (fun acc sol ->
        if Ungraph.total_weight g sol > Ungraph.total_weight g acc then sol else acc)
      [] candidates
  in
  List.sort compare best

let max_weight_independent_set ?budget g =
  weighted ?budget Ramsey.clique_removal g

(* below this size the exact MWC engine is cheap enough to refine the
   Halldórsson approximation; above it the product graphs are the domain of
   the heuristic tier and we keep the historical polynomial path *)
let mwc_refine_max_n = 350
let mwc_refine_default_steps = 200_000

let max_weight_clique ?budget g =
  let approx = weighted ?budget Ramsey.is_removal g in
  if Ungraph.n g > mwc_refine_max_n || (match budget with Some b -> Budget.exhausted b | None -> false)
  then approx
  else begin
    let b =
      match budget with
      | Some b -> b
      | None -> Budget.create ~steps:mwc_refine_default_steps ()
    in
    let r = Mwc.solve ~budget:b g in
    if r.Mwc.weight > Ungraph.total_weight g approx then r.Mwc.clique
    else approx
  end

(* Exact maximum clique — the bitset MWC engine on unit weights
   (cardinality objective), anytime under [budget]. *)
let exact_max_clique ?budget g =
  let budget =
    match budget with Some b -> b | None -> Budget.create ~steps:10_000_000 ()
  in
  let r = Mwc.solve_cardinality ~budget g in
  (r.Mwc.clique, r.Mwc.status)

(* Exact maximum-weight clique on the graph's own node weights. *)
let exact_max_weight_clique ?budget g =
  let budget =
    match budget with Some b -> b | None -> Budget.create ~steps:10_000_000 ()
  in
  let r = Mwc.solve ~budget g in
  (r.Mwc.clique, r.Mwc.weight, r.Mwc.status)

(* The pre-MWC engine: Tomita-style branch and bound with an unweighted
   greedy-colouring bound and list-backed colour classes. Kept as the
   reference implementation the bench harness and the agreement property
   tests measure the bitset engine against. *)
let exact_max_clique_legacy ?budget g =
  let budget =
    match budget with Some b -> b | None -> Budget.create ~steps:10_000_000 ()
  in
  let n = Ungraph.n g in
  let best = ref [] in
  let colour_bound cand =
    (* greedy colouring of the candidate set: #colours bounds the clique *)
    let colours = ref [] in
    Bitset.iter
      (fun v ->
        let rec place = function
          | [] -> colours := [ ref [ v ] ] @ !colours
          | cl :: rest ->
              if List.exists (fun w -> Ungraph.adjacent g v w) !cl then place rest
              else cl := v :: !cl
        in
        place !colours)
      cand;
    List.length !colours
  in
  let rec expand clique cand =
    Budget.tick_exn budget;
    if Bitset.is_empty cand then begin
      if List.length clique > List.length !best then best := clique
    end
    else if List.length clique + colour_bound cand <= List.length !best then ()
    else begin
      match Bitset.choose cand with
      | None -> ()
      | Some v ->
          (* branch 1: v in the clique *)
          let cand_v = Bitset.copy cand in
          Bitset.inter_into ~into:cand_v (Ungraph.neighbors g v);
          expand (v :: clique) cand_v;
          if List.length clique + Bitset.count cand - 1 > List.length !best then begin
            (* branch 2: v excluded *)
            let cand' = Bitset.copy cand in
            Bitset.remove cand' v;
            expand clique cand'
          end
    end
  in
  let status =
    try
      expand [] (Bitset.full n);
      Budget.Complete
    with Budget.Exhausted_budget -> Budget.status budget
  in
  (List.sort compare !best, status)
