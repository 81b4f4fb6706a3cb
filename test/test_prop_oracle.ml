(* Property-based oracle suite: hundreds of small random instances where
   exact solving is feasible, cross-checking the paper's heuristics against
   the exact optimum.

   The oracle is the Theorem-5.1 reduction end to end: build the product
   (compatibility) graph and hand it to the bitset MWC engine — maximum
   cardinality clique for CPH/CPH1-1, maximum weight clique for SPH/SPH1-1.
   A small per-instance step budget suffices now that the engine carries
   colouring bounds and greedy restarts (the old assignment-tree oracle
   needed a 5M-step safety net; the MWC oracle gets 150k and must still
   prove optimality on every instance). Every 5th seed additionally runs
   the legacy assignment-tree oracle and requires the two optima to agree,
   so the reduction itself stays covered, plain and again under each of
   --compress and --partition.

   For every seeded instance and every problem variant:
   - the heuristic's mapping is a valid (1-1) p-hom mapping,
   - its quality never exceeds the exact optimum,
   - the 1-1 variants return injective mappings,
   - the oracle itself completes within its budget and returns a valid
     mapping.

   Everything is driven by fixed seeds — no [Random.self_init] — so a
   failure names the exact instance that produced it and replays forever. *)

module D = Phom_graph.Digraph
module Budget = Phom_graph.Budget
module Simmat = Phom_sim.Simmat
module Product = Phom_wis.Product
module Mwc = Phom_wis.Mwc
module Mapping = Phom.Mapping
module Instance = Phom.Instance
module Api = Phom.Api

let instance_count = 500
let eps = 1e-9

(* the whole point of the MWC oracle: optimality proofs on these sizes cost
   a few hundred search nodes, so the per-instance allowance drops from the
   assignment-tree oracle's 5M-step safety net to this *)
let oracle_budget_steps = 150_000

(* one fixed label pool; similarity comes from the matrix, labels are only
   cosmetic here *)
let labels = [| "A"; "B"; "C"; "D"; "E" |]

(* deterministic instance [i]: pattern of 2-8 nodes, data graph of up to 12
   nodes, a graded random similarity matrix thinned so candidate sets stay
   small enough for the exact oracle *)
let instance_of_seed i =
  let rng = Random.State.make [| 0x0b5; 0xe44; i |] in
  let n1 = 2 + Random.State.int rng 7 in
  let n2 = n1 + Random.State.int rng (13 - n1) in
  let random_graph n edge_prob =
    let lbls =
      Array.init n (fun _ -> labels.(Random.State.int rng (Array.length labels)))
    in
    let edges = ref [] in
    for u = 0 to n - 1 do
      for v = 0 to n - 1 do
        if Random.State.float rng 1.0 < edge_prob then edges := (u, v) :: !edges
      done
    done;
    D.make ~labels:lbls ~edges:!edges
  in
  let g1 = random_graph n1 0.25 in
  let g2 = random_graph n2 0.3 in
  (* graded similarities: ~40% of the pairs clear xi = 0.5, in four grades,
     so candidate rows average under five entries *)
  let mat =
    Simmat.of_fun ~n1 ~n2 (fun _ _ ->
        match Random.State.int rng 10 with
        | 0 | 1 -> 0.5
        | 2 -> 0.65
        | 3 -> 0.8
        | 4 -> 1.0
        | _ -> Random.State.float rng 0.45)
  in
  let weights = Array.init n1 (fun _ -> 0.25 +. Random.State.float rng 0.75) in
  (Instance.make ~g1 ~g2 ~mat ~xi:0.5 (), weights)

let problems = [ Api.CPH; Api.CPH11; Api.SPH; Api.SPH11 ]

let injective = function Api.CPH | Api.SPH -> false | _ -> true
let weighted = function Api.SPH | Api.SPH11 -> true | _ -> false

(* the Theorem-5.1 oracle: product graph + MWC engine, clique decoded back
   to a mapping *)
let mwc_oracle ~problem ~weights (t : Instance.t) =
  let inj = injective problem in
  let p =
    Product.build ~injective:inj
      ?weights:(if weighted problem then Some weights else None)
      ~g1:t.Instance.g1 ~tc2:t.Instance.tc2 ~mat:t.Instance.mat
      ~xi:t.Instance.xi ()
  in
  let budget = Budget.create ~steps:oracle_budget_steps () in
  let r =
    if weighted problem then Mwc.solve ~budget p.Product.graph
    else Mwc.solve_cardinality ~budget p.Product.graph
  in
  (Product.mapping_of_clique p r.Mwc.clique, r.Mwc.status)

let quality ~problem ~weights (t : Instance.t) mapping =
  if weighted problem then Instance.qual_sim ~weights t mapping
  else Instance.qual_card t mapping

let check_instance i =
  let t, weights = instance_of_seed i in
  List.iter
    (fun problem ->
      let name fmt =
        Printf.ksprintf
          (fun s -> Printf.sprintf "seed %d %s: %s" i (Api.problem_name problem) s)
          fmt
      in
      let inj = injective problem in
      let heur = Api.solve_within ~algorithm:Api.Direct ~weights problem t in
      let oracle_mapping, oracle_status = mwc_oracle ~problem ~weights t in
      let oracle_quality = quality ~problem ~weights t oracle_mapping in
      (* the oracle must actually be an oracle on these sizes *)
      Alcotest.(check bool)
        (name "oracle completes")
        true
        (oracle_status = Budget.Complete);
      Alcotest.(check bool)
        (name "oracle mapping valid")
        true
        (Instance.is_valid ~injective:inj t oracle_mapping);
      Alcotest.(check bool)
        (name "heuristic mapping valid")
        true
        (Instance.is_valid ~injective:inj t heur.Api.mapping);
      if inj then
        Alcotest.(check bool)
          (name "heuristic mapping injective")
          true
          (Mapping.is_injective heur.Api.mapping);
      if heur.Api.quality > oracle_quality +. eps then
        Alcotest.failf
          "seed %d %s: heuristic quality %.9f exceeds exact optimum %.9f" i
          (Api.problem_name problem) heur.Api.quality oracle_quality;
      (* the low-treewidth slice: the tree-decomposition DP must reproduce
         the MWC oracle's optimum on every narrow instance (its home turf —
         the 1-1 problems exercise the injective-witness fallback) *)
      if Phom.Dp.width t <= 2 then begin
        let dp = Api.solve_within ~algorithm:Api.Dp_td ~weights problem t in
        Alcotest.(check bool)
          (name "dp mapping valid")
          true
          (Instance.is_valid ~injective:inj t dp.Api.mapping);
        Alcotest.(check (float 1e-6))
          (name "dp agrees with mwc oracle")
          oracle_quality dp.Api.quality
      end;
      (* keep the reduction honest: on a sample of seeds the legacy
         assignment-tree oracle must find the same optimum value, plain and
         under either Appendix-B option *)
      if i mod 5 = 0 then
        List.iter
          (fun (route, compress, partition) ->
            let legacy =
              Api.solve_within ~algorithm:Api.Exact_bb ~compress ~partition
                ~weights problem t
            in
            Alcotest.(check bool)
              (name "legacy oracle completes%s" route)
              true
              (legacy.Api.status = Budget.Complete);
            Alcotest.(check (float 1e-6))
              (name "oracles agree%s" route)
              legacy.Api.quality oracle_quality)
          [ ("", false, false); (" (compress)", true, false);
            (" (partition)", false, true) ])
    problems

(* chunked so a failure points at a narrow seed range and the suite shows
   progress instead of one silent five-hundred-instance case *)
let chunk lo hi () =
  for i = lo to hi - 1 do
    check_instance i
  done

let suite =
  let chunks = 5 in
  let per = instance_count / chunks in
  [
    ( "property oracle",
      List.init chunks (fun c ->
          let lo = c * per and hi = (c + 1) * per in
          Alcotest.test_case
            (Printf.sprintf "heuristics vs exact, seeds %d-%d" lo (hi - 1))
            `Slow (chunk lo hi)) );
  ]
