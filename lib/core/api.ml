module D = Phom_graph.Digraph
module Budget = Phom_graph.Budget
module Obs = Phom_obs.Obs

type problem = CPH | CPH11 | SPH | SPH11

type algorithm = Direct | Naive_product | Exact_bb | Dp_td

let algorithm_label = function
  | Direct -> "direct"
  | Naive_product -> "naive"
  | Exact_bb -> "exact"
  | Dp_td -> "dp"

(* exact answers become polynomial once the pattern decomposes this
   narrowly; above it the DP tables outgrow the B&B's pruning *)
let default_max_width = 4

type result = {
  problem : problem;
  mapping : Mapping.t;
  quality : float;
  status : Budget.status;
}

let injective = function CPH | SPH -> false | CPH11 | SPH11 -> true

let problem_name = function
  | CPH -> "CPH"
  | CPH11 -> "CPH1-1"
  | SPH -> "SPH"
  | SPH11 -> "SPH1-1"

let default_weights (t : Instance.t) = Array.make (D.n t.g1) 1.

(* [pool] is ignored: every phase runs on the caller's domain, and the
   parameter stays only because phombench's tracer still passes one *)
let solve_within ?(algorithm = Direct) ?weights ?(partition = false)
    ?(compress = false) ?(max_width = default_max_width) ?budget ?pool:_
    ?warm_start problem (t : Instance.t) =
  let inj = injective problem in
  let weights = match weights with Some w -> w | None -> default_weights t in
  (* Exact_bb without an explicit budget runs on its own default token;
     record a trip so the caller still learns the result may be partial *)
  let inner_status = ref Budget.Complete in
  let settle (o : Exact.outcome) =
    (match o.status with
    | Budget.Exhausted _ as s -> inner_status := s
    | Budget.Complete -> ());
    o.mapping
  in
  (* [w] below is always re-indexed to the g1 of the sub-instance at hand
     (partitioning renumbers g1 nodes; compression leaves g1 intact) *)
  let base_algo (sub : Instance.t) w =
    let objective =
      match problem with
      | CPH | CPH11 -> Exact.Cardinality
      | SPH | SPH11 -> Exact.Similarity w
    in
    match (algorithm, problem) with
    | Direct, (CPH | CPH11) -> Comp_max_card.run ~injective:inj ?budget sub
    | Direct, (SPH | SPH11) ->
        Comp_max_sim.run ~injective:inj ?budget ~weights:w sub
    | Naive_product, (CPH | CPH11) -> Naive.max_card ~injective:inj ?budget sub
    | Naive_product, (SPH | SPH11) ->
        Naive.max_sim ~injective:inj ?budget ~weights:w sub
    (* narrow patterns get the polynomial DP even when the caller asked
       for the B&B: same optimum, tabulation instead of search *)
    | (Dp_td | Exact_bb), _ ->
        settle
          (if algorithm = Dp_td || Dp.width sub <= max_width then
             Dp.solve ~injective:inj ?budget ~objective sub
           else Exact.solve ~injective:inj ?budget ~objective sub)
  in
  (* an SCC collapsed to one node takes one pattern node under
     injectivity, so on the 1-1 problems the exact algorithms skip
     compression, as every algorithm skips partitioning there *)
  let compress =
    compress && not (inj && (algorithm = Exact_bb || algorithm = Dp_td))
  in
  let compressed_algo sub w =
    if compress then
      match (algorithm, problem) with
      | Direct, (CPH | CPH11) ->
          (* thread clique capacities through the direct algorithm *)
          let c = Opts.compress sub in
          let m =
            Comp_max_card.run ~injective:inj ?budget
              ~capacities:c.Opts.capacities c.Opts.sub
          in
          Opts.decompress ~injective:inj c m
      | _ -> Opts.with_compression ~injective:inj (fun s -> base_algo s w) sub
    else base_algo sub w
  in
  let algo_label = algorithm_label algorithm in
  Obs.incr
    (Obs.counter
       ~labels:[ ("problem", problem_name problem); ("algorithm", algo_label) ]
       "phom_solver_solves_total");
  let span_name = "solve_" ^ algo_label in
  let steps_before = Option.fold ~none:0 ~some:Budget.steps_used budget in
  let mapping =
    Obs.span span_name (fun () ->
        if partition && not inj then
          Opts.partitioned
            (fun sub old_of_new ->
              compressed_algo sub (Array.map (fun ov -> weights.(ov)) old_of_new))
            t
        else compressed_algo t weights)
  in
  Obs.span_steps span_name
    (Option.fold ~none:0 ~some:Budget.steps_used budget - steps_before);
  let qual m =
    match problem with
    | CPH | CPH11 -> Instance.qual_card t m
    | SPH | SPH11 -> Instance.qual_sim ~weights t m
  in
  let quality = qual mapping in
  let status =
    match budget with
    | Some b -> (
        match Budget.status b with
        | Budget.Exhausted _ as s -> s
        | Budget.Complete -> !inner_status)
    | None -> !inner_status
  in
  (* a previous mapping, repaired against the (possibly edited) instance,
     becomes the anytime floor: a budget-tripped search never returns worse
     than the salvage of what was already known. Complete results are left
     alone — they are proven optimal, so the floor cannot beat them and the
     answer stays identical to a cold solve — and so only an exhausted
     search pays for the repair. *)
  let mapping, quality =
    match (status, warm_start) with
    | Budget.Exhausted _, Some w -> (
        match Warm.repair ~injective:inj t w with
        | [] -> (mapping, quality)
        | r ->
            Obs.incr (Obs.counter "phom_warm_seeds_total");
            let wq = qual r in
            if wq > quality then begin
              Obs.incr (Obs.counter "phom_warm_rescued_total");
              (r, wq)
            end
            else (mapping, quality))
    | _ -> (mapping, quality)
  in
  (match status with
  | Budget.Complete -> ()
  | Budget.Exhausted reason ->
      Obs.incr
        (Obs.counter
           ~labels:[ ("reason", Budget.string_of_reason reason) ]
           "phom_solver_budget_trips_total"));
  { problem; mapping; quality; status }

let solve ?algorithm ?weights ?partition ?compress problem t =
  solve_within ?algorithm ?weights ?partition ?compress problem t

let matches ?(threshold = 0.75) r = r.quality >= threshold

(* iterate the pattern edges whose endpoints are both mapped *)
let iter_mapped_edges (t : Instance.t) mapping f =
  List.iter
    (fun (v, u) ->
      Array.iter
        (fun v' ->
          match Mapping.apply mapping v' with
          | Some u' -> f v v' u u'
          | None -> ())
        (D.succ t.g1 v))
    mapping

let report (t : Instance.t) r =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "%s: quality %.4f over %d of %d pattern nodes\n"
       (problem_name r.problem) r.quality
       (Mapping.size r.mapping)
       (D.n t.g1));
  (match r.status with
  | Budget.Complete -> ()
  | Budget.Exhausted reason ->
      Buffer.add_string buf
        (Printf.sprintf "  (budget exhausted: %s — best result found so far)\n"
           (Budget.string_of_reason reason)));
  List.iter
    (fun (v, u) ->
      Buffer.add_string buf
        (Printf.sprintf "  %d [%s] -> %d [%s]  (similarity %.2f)\n" v
           (D.label t.g1 v) u (D.label t.g2 u)
           (Phom_sim.Simmat.get t.mat v u)))
    r.mapping;
  let unmapped =
    List.filter
      (fun v -> Mapping.apply r.mapping v = None)
      (List.init (D.n t.g1) Fun.id)
  in
  if unmapped <> [] then begin
    Buffer.add_string buf "  unmapped pattern nodes:";
    List.iter
      (fun v -> Buffer.add_string buf (Printf.sprintf " %d [%s]" v (D.label t.g1 v)))
      unmapped;
    Buffer.add_char buf '\n'
  end;
  Buffer.add_string buf "edge witnesses:\n";
  iter_mapped_edges t r.mapping (fun v v' u u' ->
      match Phom_graph.Traversal.shortest_path t.g2 u u' with
      | Some path ->
          Buffer.add_string buf
            (Printf.sprintf "  (%s -> %s) maps to %s\n" (D.label t.g1 v)
               (D.label t.g1 v')
               (String.concat " / " (List.map (D.label t.g2) path)))
      | None ->
          Buffer.add_string buf
            (Printf.sprintf "  (%s -> %s): NO PATH — invalid mapping!\n"
               (D.label t.g1 v) (D.label t.g1 v')));
  Buffer.contents buf

let decide_phom ?budget t = Exact.decide ~injective:false ?budget t

let decide_one_one_phom ?budget t = Exact.decide ~injective:true ?budget t

let count ?budget t =
  Obs.incr (Obs.counter "phom_solver_counts_total");
  Obs.span "count" @@ fun () -> Dp.count ?budget t
