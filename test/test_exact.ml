open Helpers
module Exact = Phom.Exact
module Budget = Phom_graph.Budget
module G = Phom_graph.Generators

let test_decide_simple () =
  let g1 = graph [ "a"; "b" ] [ (0, 1) ] in
  let yes = graph [ "a"; "x"; "b" ] [ (0, 1); (1, 2) ] in
  let no = graph [ "a"; "b" ] [ (1, 0) ] in
  Alcotest.(check (option bool)) "path target" (Some true)
    (Exact.decide (eq_instance g1 yes));
  Alcotest.(check (option bool)) "reversed target" (Some false)
    (Exact.decide (eq_instance g1 no))

let test_decide_budget () =
  (* adversarial-ish instance with a tiny budget gives None *)
  let rng = Random.State.make [| 11 |] in
  let g1 =
    Phom_graph.Generators.erdos_renyi ~rng ~n:12 ~m:20 ~labels:(fun _ -> "x")
  in
  let g2 =
    Phom_graph.Generators.erdos_renyi ~rng ~n:14 ~m:10 ~labels:(fun _ -> "x")
  in
  let t = eq_instance g1 g2 in
  Alcotest.(check (option bool)) "gives up" None (Exact.decide ~budget:(Phom_graph.Budget.trip_after 5) t)

let test_solve_optimal_flag () =
  let g1 = graph [ "a" ] [] and g2 = graph [ "a" ] [] in
  let t = eq_instance g1 g2 in
  let r = Exact.solve ~objective:Exact.Cardinality t in
  Alcotest.(check bool) "optimal" true (r.Exact.status = Phom_graph.Budget.Complete);
  Alcotest.(check (float 1e-9)) "quality 1" 1.0 (Instance.qual_card t r.Exact.mapping)

let test_similarity_objective () =
  (* cardinality would map both light nodes; similarity prefers the heavy *)
  let g1 = graph [ "a"; "b" ] [] and g2 = graph [ "a" ] [] in
  let mat = Simmat.of_fun ~n1:2 ~n2:1 (fun _ _ -> 1.0) in
  let t = Instance.make ~g1 ~g2 ~mat ~xi:0.5 () in
  let r =
    Exact.solve ~injective:true ~objective:(Exact.Similarity [| 1.; 5. |]) t
  in
  check_mapping "heavy node kept" [ (1, 0) ] r.Exact.mapping

(* brute-force oracle: enumerate every partial function over small search
   spaces and keep the best valid one *)
let brute_force_best (t : Instance.t) =
  let n1 = D.n t.g1 and n2 = D.n t.g2 in
  let best = ref 0 in
  let rec go v acc =
    if v = n1 then begin
      let m = Mapping.normalize acc in
      if Instance.is_valid t m then best := max !best (Mapping.size m)
    end
    else begin
      go (v + 1) acc;
      for u = 0 to n2 - 1 do
        go (v + 1) ((v, u) :: acc)
      done
    end
  in
  go 0 [];
  !best

let prop_matches_brute_force =
  qtest ~count:60 "exact: agrees with brute force"
    (instance_gen ~max_n1:3 ~max_n2:4 ()) print_instance (fun t ->
      let r = Exact.solve ~objective:Exact.Cardinality t in
      r.Exact.status = Phom_graph.Budget.Complete && Mapping.size r.Exact.mapping = brute_force_best t)

let prop_decide_iff_full_mapping =
  qtest ~count:100 "exact: decide ⟺ optimum covers G1"
    (instance_gen ~max_n1:4 ~max_n2:5 ()) print_instance (fun t ->
      let d = Exact.decide t in
      let r = Exact.solve ~objective:Exact.Cardinality t in
      match d with
      | None -> true
      | Some yes -> yes = (Mapping.size r.Exact.mapping = D.n t.g1))

let prop_solution_valid =
  qtest ~count:100 "exact: solutions valid under both objectives"
    (instance_gen ()) print_instance (fun t ->
      let w = Array.make (D.n t.g1) 2. in
      Instance.is_valid t (Exact.solve ~objective:Exact.Cardinality t).Exact.mapping
      && Instance.is_valid ~injective:true t
           (Exact.solve ~injective:true ~objective:(Exact.Similarity w) t)
             .Exact.mapping)

(* [Exact]'s search before masks, kept as the reference: the same plan
   (scarcest row first, the same suffix bound), per-candidate [tc2] probes
   of every placed neighbour, used targets in a table, one tick per search
   node, and the three entry points' cuts and leaves. The masked search must
   agree with it in mapping, status and steps at every step cap. *)
module Reference = struct
  let value objective (t : Instance.t) v u =
    match objective with
    | Exact.Cardinality -> 1.
    | Exact.Similarity w -> w.(v) *. Simmat.get t.mat v u

  let plan objective cands (t : Instance.t) =
    let n1 = D.n t.g1 in
    let order = Array.init n1 Fun.id in
    Array.sort
      (fun a b -> compare (Array.length cands.(a)) (Array.length cands.(b)))
      order;
    let suffix = Array.make (n1 + 1) 0. in
    for k = n1 - 1 downto 0 do
      let v = order.(k) in
      suffix.(k) <-
        suffix.(k + 1)
        +. Array.fold_left
             (fun acc u -> Float.max acc (value objective t v u))
             0. cands.(v)
    done;
    (order, suffix)

  let search (order, suffix) objective cands ~injective ~budget ~total ~cut
      ~leaf (t : Instance.t) =
    let n1 = Array.length order in
    let assigned = Array.make n1 (-1) and used = Hashtbl.create 97 in
    let consistent v u =
      (not (injective && Hashtbl.mem used u))
      && Array.for_all
           (fun v' -> assigned.(v') < 0 || BM.get t.tc2 u assigned.(v'))
           (D.succ t.g1 v)
      && Array.for_all
           (fun v' -> assigned.(v') < 0 || BM.get t.tc2 assigned.(v') u)
           (D.pred t.g1 v)
    in
    let mapping () =
      List.filter (fun (_, u) -> u >= 0) (List.init n1 (fun v -> (v, assigned.(v))))
    in
    let rec go k acc =
      Budget.tick_exn budget;
      if k = n1 then leaf acc mapping
      else if not (cut (acc +. suffix.(k))) then begin
        let v = order.(k) in
        Array.iter
          (fun u ->
            if consistent v u then begin
              assigned.(v) <- u;
              if injective then Hashtbl.add used u ();
              go (k + 1) (acc +. value objective t v u);
              assigned.(v) <- -1;
              if injective then Hashtbl.remove used u
            end)
          cands.(v);
        if not total then go (k + 1) acc
      end
    in
    go 0 0.

  let optimise ~injective ~budget ~objective t =
    let cands = Instance.candidates t in
    let p = plan objective cands t in
    let best = ref [] and best_value = ref neg_infinity in
    let exception Solved in
    let leaf v mapping =
      if v > !best_value then begin
        best_value := v;
        best := mapping ();
        if v >= (snd p).(0) then raise Solved
      end
    in
    let status =
      match
        search p objective cands ~injective ~budget ~total:false
          ~cut:(fun bound -> bound <= !best_value)
          ~leaf t
      with
      | () | (exception Solved) -> Budget.Complete
      | exception Budget.Exhausted_budget -> Budget.status budget
    in
    (p, cands, { Exact.mapping = Mapping.normalize !best; status }, !best_value)

  let solve ~injective ~budget ~objective t =
    let _, _, outcome, _ = optimise ~injective ~budget ~objective t in
    outcome

  let enumerate_optimal ~injective ~budget ~limit ~objective t =
    let p, cands, opt, best_value = optimise ~injective ~budget ~objective t in
    let target = best_value -. 1e-9 in
    let found = ref [] and count = ref 0 in
    let exception Truncated in
    let leaf v mapping =
      if v >= target then begin
        if !count >= limit then raise Truncated;
        found := mapping () :: !found;
        incr count
      end
    in
    let exhaustive =
      opt.Exact.status = Budget.Complete
      &&
      match
        search p objective cands ~injective ~budget ~total:false
          ~cut:(fun bound -> bound < target)
          ~leaf t
      with
      | () -> true
      | exception (Truncated | Budget.Exhausted_budget) -> false
    in
    (List.sort compare !found, exhaustive)

  let decide ~injective ~budget ?candidates t =
    let cands =
      match candidates with Some c -> c | None -> Instance.candidates t
    in
    if Array.exists (fun row -> Array.length row = 0) cands then Some false
    else
      let exception Found in
      match
        search
          (plan Exact.Cardinality cands t)
          Exact.Cardinality cands ~injective ~budget ~total:true
          ~cut:(fun _ -> false)
          ~leaf:(fun _ _ -> raise Found)
          t
      with
      | () -> Some false
      | exception Found -> Some true
      | exception Budget.Exhausted_budget -> None
end

(* exact-tier's graded similarities: label agreement sets the base, a
   random grade spreads the rows over several thresholds *)
let graded st g1 g2 =
  Simmat.of_fun ~n1:(D.n g1) ~n2:(D.n g2) (fun v u ->
      let base = if D.label g1 v = D.label g2 u then 0.55 else 0.25 in
      Float.min 1. (base +. (0.15 *. float_of_int (Random.State.int st 4))))

(* Instances for the differential, one family per draw: tree, series-
   parallel and partial 3-tree patterns against 24-node DAGs (exact-tier's
   recipe, smaller patterns); a ring with a self-loop at node 0 and at
   least a 2-cycle between nodes 0 and 1, against a cyclic graph; and a
   tree whose last nodes take every node of a 127–135-node DAG, so their
   masks span three words *)
let differential_gen : Instance.t QCheck.Gen.t =
 fun st ->
  let int a b = a + Random.State.int st (b - a + 1) in
  let lbl _ = [| "A"; "B"; "C" |].(Random.State.int st 3) in
  let make g1 g2 mat = Instance.make ~g1 ~g2 ~mat ~xi:0.5 () in
  let against_dag g1 =
    let g2 = G.random_dag ~rng:st ~n:24 ~m:52 ~labels:lbl in
    make g1 g2 (graded st g1 g2)
  in
  match Random.State.int st 5 with
  | 0 -> against_dag (G.random_tree ~rng:st ~n:(int 4 7) ~labels:lbl)
  | 1 -> against_dag (G.series_parallel ~rng:st ~n:(int 4 7) ~labels:lbl)
  | 2 -> against_dag (G.random_ktree ~rng:st ~n:(int 4 7) ~k:3 ~keep:0.8 ~labels:lbl ())
  | 3 ->
      let n1 = int 3 6 in
      let ring = List.init n1 (fun i -> (i, (i + 1) mod n1)) in
      let back = List.filter (fun _ -> Random.State.bool st) ring in
      let g1 =
        D.make ~labels:(Array.init n1 lbl)
          ~edges:((0, 0) :: (1, 0) :: ring @ List.map (fun (a, b) -> (b, a)) back)
      in
      let g2 = G.erdos_renyi ~rng:st ~n:(int 12 20) ~m:(int 20 45) ~labels:lbl in
      make g1 g2 (graded st g1 g2)
  | _ ->
      let narrow = int 2 3 and n2 = int 127 135 in
      let n1 = narrow + int 1 2 in
      let g1 = G.random_tree ~rng:st ~n:n1 ~labels:lbl in
      let g2 = G.random_dag ~rng:st ~n:n2 ~m:(int (2 * n2) (4 * n2)) ~labels:lbl in
      make g1 g2
        (Simmat.of_fun ~n1 ~n2 (fun v _ ->
             if v >= narrow then 0.5 +. (0.1 *. float_of_int (Random.State.int st 5))
             else if Random.State.int st 20 = 0 then 0.8
             else 0.1))

let prop_masked_matches_reference =
  qtest ~count:40 "exact: masked search ≡ per-candidate reference"
    differential_gen print_instance (fun t ->
      let weights = Array.init (D.n t.g1) (fun v -> 0.5 +. (float_of_int (v mod 4) /. 4.)) in
      let prefiltered = Phom.Prefilter.refine t in
      let objectives = [ Exact.Cardinality; Exact.Similarity weights ] in
      (* [run cap f] is [f]'s answer and the steps it used, on a fresh token *)
      let run cap f =
        let budget =
          match cap with None -> Budget.unlimited () | Some s -> Budget.create ~steps:s ()
        in
        let r = f budget in
        (r, Budget.steps_used budget)
      in
      let agree what cap a b =
        if a <> b then
          QCheck.Test.fail_reportf "%s differs at cap %s" what
            (match cap with None -> "none" | Some s -> string_of_int s)
      in
      List.iter
        (fun cap ->
          List.iter
            (fun injective ->
              List.iter
                (fun objective ->
                  agree "solve" cap
                    (run cap (fun budget -> Exact.solve ~injective ~budget ~objective t))
                    (run cap (fun budget -> Reference.solve ~injective ~budget ~objective t));
                  agree "enumerate_optimal" cap
                    (run cap (fun budget ->
                         Exact.enumerate_optimal ~injective ~budget ~limit:5 ~objective t))
                    (run cap (fun budget ->
                         Reference.enumerate_optimal ~injective ~budget ~limit:5 ~objective t)))
                objectives;
              List.iter
                (fun candidates ->
                  agree "decide" cap
                    (run cap (fun budget -> Exact.decide ~injective ~budget ?candidates t))
                    (run cap (fun budget -> Reference.decide ~injective ~budget ?candidates t)))
                [ None; Some prefiltered ])
            [ false; true ])
        [ None; Some 1; Some 10; Some 100; Some 1000 ];
      true)

let suite =
  [
    ( "exact",
      [
        Alcotest.test_case "decide" `Quick test_decide_simple;
        Alcotest.test_case "decide budget" `Quick test_decide_budget;
        Alcotest.test_case "optimality flag" `Quick test_solve_optimal_flag;
        Alcotest.test_case "similarity objective" `Quick test_similarity_objective;
        prop_matches_brute_force;
        prop_decide_iff_full_mapping;
        prop_solution_valid;
        prop_masked_matches_reference;
      ] );
  ]
