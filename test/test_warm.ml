(* Warm.repair and the warm-start floor it feeds.

   [Warm.repair] walks the mapped nodes' out-edges against an image array;
   [quadratic_repair] below is the all-pairs formulation of the same rule,
   kept as the reference: on seeded Fig-5 pairs whose data graphs lose
   edges, with perturbed mappings under both injectivities, the two must
   agree exactly. Hand-built cases pin the eviction tie rule, the self-loop
   admissibility test and injective first-pair-wins. The floor tests check
   what [Api.solve_within ~warm_start] returns: the cold answer when the
   budget is ample, at least the repaired seed when it trips — in-process
   and through [Daemon.execute]. *)

module D = Phom_graph.Digraph
module BM = Phom_graph.Bitmatrix
module G = Phom_graph.Generators
module Budget = Phom_graph.Budget
module Simmat = Phom_sim.Simmat
module Shingle = Phom_sim.Shingle
module Instance = Phom.Instance
module Api = Phom.Api
module Warm = Phom.Warm
module Obs = Phom_obs.Obs
module Daemon = Phom_server.Daemon
module Incr = Test_incr_oracle

(* the all-pairs repair: steps 1 and 2 as in [Warm.repair], then every
   ordered pair of mapped nodes is tested for a broken pattern edge *)
let quadratic_repair ?(injective = false) (t : Instance.t) m =
  let admissible (v, u) =
    v >= 0
    && v < D.n t.g1
    && u >= 0
    && u < D.n t.g2
    && Simmat.get t.mat v u >= t.xi
    && ((not (D.has_edge t.g1 v v)) || BM.get t.tc2 u u)
  in
  let sorted = List.stable_sort compare (List.filter admissible m) in
  let used = Hashtbl.create 16 in
  let _, rev =
    List.fold_left
      (fun (prev, acc) (v, u) ->
        if v = prev || (injective && Hashtbl.mem used u) then (prev, acc)
        else begin
          if injective then Hashtbl.add used u ();
          (v, (v, u) :: acc)
        end)
      (-1, []) sorted
  in
  let rec fix m =
    let viol = Hashtbl.create 16 in
    let bump v =
      Hashtbl.replace viol v
        (1 + Option.value ~default:0 (Hashtbl.find_opt viol v))
    in
    List.iter
      (fun (v, u) ->
        List.iter
          (fun (v', u') ->
            if D.has_edge t.g1 v v' && not (BM.get t.tc2 u u') then begin
              bump v;
              bump v'
            end)
          m)
      m;
    if Hashtbl.length viol = 0 then m
    else begin
      let worst, _ =
        Hashtbl.fold
          (fun v c (bv, bc) ->
            if c > bc || (c = bc && v < bv) then (v, c) else (bv, bc))
          viol (max_int, 0)
      in
      fix (List.filter (fun (v, _) -> v <> worst) m)
    end
  in
  fix (List.rev rev)

let pp_mapping m =
  String.concat " " (List.map (fun (v, u) -> Printf.sprintf "%d->%d" v u) m)

let rec strictly_sorted = function
  | a :: (b :: _ as rest) -> compare a b < 0 && strictly_sorted rest
  | [] | [ _ ] -> true

(* ---- seeded Fig-5 pairs whose data graphs lose edges ---- *)

let shingle_instance g1 g2 =
  Instance.make ~g1 ~g2 ~mat:(Shingle.matrix (D.labels g1) (D.labels g2))
    ~xi:0.5 ()

(* the pair, its data graph with a seeded share of the edges deleted, and
   the instances before and after *)
let edited_pair seed =
  let rng = Random.State.make [| 0x3A7; seed |] in
  let m = 6 + (seed mod 15) in
  let g1, pool = G.paper_pattern ~rng ~m in
  let g2 = G.paper_data ~rng ~pool ~noise:0.1 g1 in
  let keep = 0.5 +. Random.State.float rng 0.45 in
  let g2' =
    D.make ~labels:(D.labels g2)
      ~edges:(List.filter (fun _ -> Random.State.float rng 1. < keep) (D.edges g2))
  in
  (rng, shingle_instance g1 g2, shingle_instance g1 g2')

(* an answer found before the edit, perturbed: re-targets (to a same-label
   node or anywhere), extra pairs (some out of range), duplicates *)
let perturb rng (t : Instance.t) m kind =
  let n1 = D.n t.g1 and n2 = D.n t.g2 in
  let cands = Instance.candidates t in
  let retarget v =
    if Array.length cands.(v) > 0 && Random.State.bool rng then
      cands.(v).(Random.State.int rng (Array.length cands.(v)))
    else Random.State.int rng n2
  in
  match kind with
  | 0 -> m
  | 1 ->
      List.map
        (fun (v, u) ->
          if Random.State.int rng 3 = 0 then (v, retarget v) else (v, u))
        m
  | 2 ->
      let extra =
        List.init
          (1 + Random.State.int rng 5)
          (fun _ ->
            match Random.State.int rng 8 with
            | 0 -> (n1 + Random.State.int rng 3, 0)
            | 1 -> (Random.State.int rng n1, -1)
            | _ ->
                let v = Random.State.int rng n1 in
                (v, retarget v))
      in
      extra @ m
  | _ ->
      List.concat_map
        (fun (v, u) ->
          match Random.State.int rng 4 with
          | 0 -> [ (v, u); (v, u) ]
          | 1 -> [ (v, retarget v); (v, u) ]
          | _ -> [ (v, u) ])
        m

let test_agrees_with_quadratic () =
  let cases = ref 0 in
  for seed = 0 to 99 do
    let rng, before, after = edited_pair seed in
    List.iter
      (fun problem ->
        let answer = (Api.solve problem before).Api.mapping in
        for kind = 0 to 3 do
          let m = perturb rng after answer kind in
          List.iter
            (fun injective ->
              incr cases;
              let r = Warm.repair ~injective after m in
              let where =
                Printf.sprintf "seed %d kind %d injective=%b input [%s]" seed
                  kind injective (pp_mapping m)
              in
              if not (Instance.is_valid ~injective after r) then
                Alcotest.failf "%s: invalid result [%s]" where (pp_mapping r);
              if not (strictly_sorted r) then
                Alcotest.failf "%s: not sorted and duplicate-free [%s]" where
                  (pp_mapping r);
              if not (List.for_all (fun p -> List.mem p m) r) then
                Alcotest.failf "%s: [%s] is not a subset of the input" where
                  (pp_mapping r);
              let expected = quadratic_repair ~injective after m in
              if r <> expected then
                Alcotest.failf "%s: repair [%s], quadratic reference [%s]"
                  where (pp_mapping r) (pp_mapping expected))
            [ false; true ]
        done)
      [ Api.CPH; Api.CPH11 ]
  done;
  Alcotest.(check int) "cases checked" 1600 !cases

(* ---- hand-built cases ---- *)

(* label-equality instance where every pattern node may map to every data
   node: only the paths decide *)
let uniform ~g1_edges ~n1 ~g2_edges ~n2 =
  let g1 = D.make ~labels:(Array.make n1 "a") ~edges:g1_edges in
  let g2 = D.make ~labels:(Array.make n2 "a") ~edges:g2_edges in
  Helpers.eq_instance g1 g2

let check_both name t m expected =
  List.iter
    (fun injective ->
      Helpers.check_mapping
        (Printf.sprintf "%s (injective=%b)" name injective)
        expected (Warm.repair ~injective t m);
      Helpers.check_mapping
        (Printf.sprintf "%s: quadratic reference (injective=%b)" name injective)
        expected
        (quadratic_repair ~injective t m))
    [ false; true ]

let test_tie_rule () =
  (* 0 -> 1 with no path between the images: both endpoints break one
     edge, so the smaller id goes *)
  let t = uniform ~n1:2 ~g1_edges:[ (0, 1) ] ~n2:2 ~g2_edges:[] in
  check_both "tie evicts the smallest id" t [ (1, 1); (0, 0) ] [ (1, 1) ];
  (* 0 -> 1 and 2 -> 1, no paths: node 1 breaks two edges and goes alone *)
  let t = uniform ~n1:3 ~g1_edges:[ (0, 1); (2, 1) ] ~n2:3 ~g2_edges:[] in
  check_both "most broken edges goes first" t
    [ (2, 2); (0, 0); (1, 1) ]
    [ (0, 0); (2, 2) ];
  (* a chain 0 -> 1 -> 2 -> 3 whose images only connect 0 -> 1 and 2 -> 3:
     1 and 2 tie on one broken edge each, 1 goes, and 0 -> 1's images keep
     nothing else broken *)
  let t =
    uniform ~n1:4
      ~g1_edges:[ (0, 1); (1, 2); (2, 3) ]
      ~n2:4
      ~g2_edges:[ (0, 1); (2, 3) ]
  in
  check_both "chain tie" t
    [ (0, 0); (1, 1); (2, 2); (3, 3) ]
    [ (0, 0); (2, 2); (3, 3) ]

let test_self_loop_off_cycle () =
  (* pattern node 0 carries a self-loop; data node 0 lies on a cycle
     (0 <-> 1), data node 2 on none *)
  let t =
    uniform ~n1:2
      ~g1_edges:[ (0, 0); (0, 1) ]
      ~n2:3
      ~g2_edges:[ (0, 1); (1, 0); (1, 2) ]
  in
  check_both "self-looped node mapped off every cycle is dropped" t
    [ (0, 2); (1, 1) ]
    [ (1, 1) ];
  check_both "mapped onto a cycle it stays" t [ (0, 0); (1, 1) ] [ (0, 0); (1, 1) ]

let test_injective_first_pair_wins () =
  let t = uniform ~n1:3 ~g1_edges:[] ~n2:3 ~g2_edges:[] in
  let m = [ (2, 1); (1, 1); (0, 2); (0, 1) ] in
  (* sorted: (0,1) (0,2) (1,1) (2,1) — pattern node 0 keeps its first
     pair; data node 1 then belongs to 0 under injectivity *)
  Helpers.check_mapping "injective" [ (0, 1) ] (Warm.repair ~injective:true t m);
  Helpers.check_mapping "not injective"
    [ (0, 1); (1, 1); (2, 1) ]
    (Warm.repair t m);
  Helpers.check_mapping "quadratic reference agrees" [ (0, 1) ]
    (quadratic_repair ~injective:true t m)

(* ---- the warm-start floor ---- *)

let problems = [ Api.CPH; Api.CPH11; Api.SPH; Api.SPH11 ]

let qual problem (t : Instance.t) m =
  match problem with
  | Api.CPH | Api.CPH11 -> Instance.qual_card t m
  | Api.SPH | Api.SPH11 ->
      Instance.qual_sim ~weights:(Array.make (D.n t.g1) 1.) t m

let test_ample_budget_is_cold () =
  for seed = 0 to 29 do
    let _, before, after = edited_pair seed in
    List.iter
      (fun problem ->
        let seed_map = (Api.solve problem before).Api.mapping in
        let cold = Api.solve_within ~budget:(Budget.unlimited ()) problem after in
        let warm =
          Api.solve_within ~budget:(Budget.unlimited ()) ~warm_start:seed_map
            problem after
        in
        let where = Printf.sprintf "seed %d %s" seed (Api.problem_name problem) in
        Helpers.check_mapping (where ^ ": mapping") cold.Api.mapping
          warm.Api.mapping;
        Alcotest.(check (float 0.)) (where ^ ": quality") cold.Api.quality
          warm.Api.quality;
        Alcotest.(check string) (where ^ ": status")
          (Budget.string_of_status cold.Api.status)
          (Budget.string_of_status warm.Api.status))
      problems
  done

let test_tripped_budget_floor () =
  let rescued = Obs.counter "phom_warm_rescued_total" in
  let seeded = ref 0 and wins = ref 0 in
  for seed = 0 to 29 do
    let _, before, after = edited_pair seed in
    List.iter
      (fun problem ->
        let injective = Api.injective problem in
        let seed_map = (Api.solve problem before).Api.mapping in
        let repaired = Warm.repair ~injective after seed_map in
        if repaired <> [] then begin
          incr seeded;
          let where =
            Printf.sprintf "seed %d %s" seed (Api.problem_name problem)
          in
          let cold =
            Api.solve_within ~budget:(Budget.create ~steps:1 ()) problem after
          in
          let n0 = Obs.counter_value rescued in
          let r =
            Api.solve_within ~budget:(Budget.create ~steps:1 ())
              ~warm_start:seed_map problem after
          in
          let n1 = Obs.counter_value rescued in
          Alcotest.(check string) (where ^ ": status") "exhausted (steps)"
            (Budget.string_of_status r.Api.status);
          Helpers.check_valid ~injective after r.Api.mapping;
          let wq = qual problem after repaired in
          if r.Api.quality < wq then
            Alcotest.failf "%s: quality %g below the repaired seed's %g" where
              r.Api.quality wq;
          if wq > cold.Api.quality then begin
            incr wins;
            Alcotest.(check int) (where ^ ": rescue counted") (n0 + 1) n1;
            Helpers.check_mapping (where ^ ": the seed is the answer") repaired
              r.Api.mapping
          end
          else begin
            Alcotest.(check int) (where ^ ": no rescue") n0 n1;
            Helpers.check_mapping (where ^ ": the engine's answer")
              cold.Api.mapping r.Api.mapping
          end
        end)
      problems
  done;
  Alcotest.(check bool) "some seeds survive repair" true (!seeded > 0);
  Alcotest.(check bool) "some seeds beat the tripped engine" true (!wins > 0)

(* only an exhausted search reads the seed, so only it pays for the
   repair: a complete warm solve leaves [phom_warm_seeds_total] alone, and
   a tripped one counts the one non-empty seed it repaired *)
let test_complete_solve_repairs_nothing () =
  let seeds = Obs.counter "phom_warm_seeds_total" in
  let repaired = ref 0 in
  for seed = 0 to 29 do
    let _, before, after = edited_pair seed in
    List.iter
      (fun problem ->
        let where = Printf.sprintf "seed %d %s" seed (Api.problem_name problem) in
        let seed_map = (Api.solve problem before).Api.mapping in
        let n0 = Obs.counter_value seeds in
        let r =
          Api.solve_within ~budget:(Budget.unlimited ()) ~warm_start:seed_map
            problem after
        in
        Alcotest.(check string) (where ^ ": complete") "complete"
          (Budget.string_of_status r.Api.status);
        Alcotest.(check int) (where ^ ": no repair") n0 (Obs.counter_value seeds);
        if Warm.repair ~injective:(Api.injective problem) after seed_map <> [] then begin
          incr repaired;
          ignore
            (Api.solve_within ~budget:(Budget.create ~steps:1 ())
               ~warm_start:seed_map problem after);
          Alcotest.(check int) (where ^ ": tripped, one repair") (n0 + 1)
            (Obs.counter_value seeds)
        end)
      problems
  done;
  Alcotest.(check bool) "some seeds survive repair" true (!repaired > 0)

(* the [key=value] field of a reply *)
let field reply key =
  let prefix = key ^ "=" in
  match
    List.find_opt
      (fun w -> String.starts_with ~prefix w)
      (String.split_on_char ' ' reply)
  with
  | Some w ->
      String.sub w (String.length prefix) (String.length w - String.length prefix)
  | None -> Alcotest.failf "reply %S has no %s= field" reply key

(* solve, delete a data edge the answer maps a pattern edge onto, re-solve
   on one budget step: the warm daemon's reply is tripped but no worse
   than a cold daemon's at the same budget *)
let test_daemon_floor () =
  let _, before, _ = edited_pair 7 in
  let g1 = before.Instance.g1 and g2 = before.Instance.g2 in
  let answer = (Api.solve Api.CPH before).Api.mapping in
  let img v = List.assoc_opt v answer in
  let used =
    List.find_map
      (fun (v, v') ->
        match (img v, img v') with
        | Some u, Some u' when D.has_edge g2 u u' -> Some (u, u')
        | _ -> None)
      (D.edges g1)
  in
  let u, u' =
    match used with
    | Some e -> e
    | None -> Alcotest.fail "the answer maps some pattern edge onto a data edge"
  in
  let load st g2 =
    let p = Incr.save_tmp g1 and d = Incr.save_tmp g2 in
    ignore (Incr.expect_ok "load" (Incr.exec st ("load graph p " ^ p)));
    ignore (Incr.expect_ok "load" (Incr.exec st ("load graph d " ^ d)));
    Incr.rm p;
    Incr.rm d
  in
  let line = "solve card p d --sim shingles --xi 0.5" in
  let tripped = line ^ " --steps 1" in
  let warm = Daemon.make_state Daemon.default_config in
  load warm g2;
  let first = Incr.expect_ok line (Incr.exec warm line) in
  Alcotest.(check string) "complete first solve" "complete" (field first "status");
  ignore
    (Incr.expect_ok "deledge"
       (Incr.exec warm (Printf.sprintf "deledge d %d %d" u u')));
  let w = Incr.expect_ok tripped (Incr.exec warm tripped) in
  let cold = Daemon.make_state Daemon.default_config in
  load cold (D.remove_edge g2 u u');
  let c = Incr.expect_ok tripped (Incr.exec cold tripped) in
  Daemon.close_state warm;
  Daemon.close_state cold;
  Alcotest.(check string) "warm reply is tripped" "exhausted(steps)"
    (field w "status");
  let wq = float_of_string (field w "quality")
  and cq = float_of_string (field c "quality") in
  if wq < cq then
    Alcotest.failf "warm quality %g below the cold tripped solve's %g (%S / %S)"
      wq cq w c;
  Alcotest.(check bool) "the repaired seed carries the reply" true (wq > 0.)

let suite =
  [
    ( "warm_repair",
      [
        Alcotest.test_case "agrees with the quadratic repair (1600 cases)"
          `Quick test_agrees_with_quadratic;
        Alcotest.test_case "ties evict the smallest id" `Quick test_tie_rule;
        Alcotest.test_case "self-looped node mapped off every cycle" `Quick
          test_self_loop_off_cycle;
        Alcotest.test_case "injective: first pair per data node wins" `Quick
          test_injective_first_pair_wins;
      ] );
    ( "warm_floor",
      [
        Alcotest.test_case "ample budget: the cold answer exactly" `Quick
          test_ample_budget_is_cold;
        Alcotest.test_case "one step: tripped, valid, never below the seed"
          `Quick test_tripped_budget_floor;
        Alcotest.test_case "complete warm solve repairs nothing" `Quick
          test_complete_solve_repairs_nothing;
        Alcotest.test_case "daemon: deledge then --steps 1 keeps the floor"
          `Quick test_daemon_floor;
      ] );
  ]
