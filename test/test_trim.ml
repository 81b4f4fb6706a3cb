open Helpers
module ML = Phom.Matching_list
module Trim = Phom.Trim

let setup g1 g2 =
  let t = eq_instance g1 g2 in
  (t, ML.of_candidates (Instance.candidates t))

(* the first half of a step on a copy of [h]: take v, trim on (v, u);
   the list left and the step's H⁻ *)
let trimmed (t : Instance.t) h ~v ~u =
  let h = ML.copy h in
  let moved = ML.take h v ~keep:u in
  Trim.trim ~g1:t.g1 ~tc2:t.tc2 ~v ~u h moved;
  let hminus = ML.finish h moved in
  (h, hminus)

let test_prunes_children () =
  (* pattern a→b; data: a, unreachable b, reachable b *)
  let g1 = graph [ "a"; "b" ] [ (0, 1) ] in
  let g2 = graph [ "a"; "b"; "b" ] [ (0, 2) ] in
  let t, h = setup g1 g2 in
  let h, hminus = trimmed t h ~v:0 ~u:0 in
  Alcotest.(check (array int)) "child keeps reachable b" [| 2 |] (ML.good h 1);
  Alcotest.(check (array int)) "pruned b in H-" [| 1 |] (ML.good hminus 1)

let test_prunes_parents () =
  (* pattern a→b, trimming on b's choice prunes a's candidates *)
  let g1 = graph [ "a"; "b" ] [ (0, 1) ] in
  let g2 = graph [ "a"; "a"; "b" ] [ (1, 2) ] in
  let t, h = setup g1 g2 in
  let h, hminus = trimmed t h ~v:1 ~u:2 in
  Alcotest.(check (array int)) "parent keeps the a that reaches" [| 1 |]
    (ML.good h 0);
  Alcotest.(check (array int)) "the other a in H-" [| 0 |] (ML.good hminus 0)

let test_untouched_nodes () =
  (* a node not adjacent to v keeps its candidates *)
  let g1 = graph [ "a"; "b"; "c" ] [ (0, 1) ] in
  let g2 = graph [ "a"; "b"; "c" ] [ (0, 1) ] in
  let t, h = setup g1 g2 in
  let h', hminus = trimmed t h ~v:0 ~u:0 in
  Alcotest.(check (array int)) "c untouched" [| 2 |] (ML.good h' 2);
  Alcotest.(check bool) "nothing moved" true (ML.is_empty hminus)

let prop_trim_sound_and_complete =
  (* after trim(v,u): u' survives in a neighbour's good iff it is
     path-consistent with (v,u), and the pruned rest is exactly H⁻ *)
  qtest ~count:100 "trim: keeps exactly the consistent candidates"
    (instance_gen ()) print_instance (fun t ->
      let h = ML.of_candidates (Instance.candidates t) in
      let n1 = D.n t.g1 in
      let ok = ref true in
      for v = 0 to n1 - 1 do
        Array.iter
          (fun u ->
            let h', hminus = trimmed t h ~v ~u in
            let check_neighbour forward v' =
              if v' <> v then
                Array.iter
                  (fun u' ->
                    let consistent =
                      if forward then BM.get t.tc2 u u' else BM.get t.tc2 u' u
                    in
                    let survives = Array.mem u' (ML.good h' v') in
                    let moved = Array.mem u' (ML.good hminus v') in
                    (* a candidate may be pruned by the other direction
                       too, so check the exact rule for double edges *)
                    let other_dir =
                      if forward then
                        (not (D.has_edge t.g1 v' v)) || BM.get t.tc2 u' u
                      else (not (D.has_edge t.g1 v v')) || BM.get t.tc2 u u'
                    in
                    if survives <> (consistent && other_dir) || survives = moved
                    then ok := false)
                  (ML.good h v')
            in
            Array.iter (check_neighbour true) (D.succ t.g1 v);
            Array.iter (check_neighbour false) (D.pred t.g1 v))
          (ML.good h v)
      done;
      !ok)

let suite =
  [
    ( "trim",
      [
        Alcotest.test_case "prunes children" `Quick test_prunes_children;
        Alcotest.test_case "prunes parents" `Quick test_prunes_parents;
        Alcotest.test_case "leaves non-neighbours alone" `Quick test_untouched_nodes;
        prop_trim_sound_and_complete;
      ] );
  ]
