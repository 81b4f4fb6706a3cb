open! Helpers
module ML = Phom.Matching_list

(* a universe whose node [v] has candidates [cands.(v)] in [g2] with the
   given edges; similarity grows with the id, so the instance's rows come
   in descending order and the universe must sort them *)
let universe ?(edges1 = []) ?(edges2 = []) cands =
  let n1 = List.length cands in
  let n2 = 1 + List.fold_left (List.fold_left max) 0 cands in
  let mat = Simmat.create ~n1 ~n2 in
  List.iteri
    (fun v us -> List.iter (fun u -> Simmat.set mat v u (0.5 +. (float_of_int u /. float_of_int (2 * n2)))) us)
    cands;
  ML.universe
    (Instance.make ~g1:(graph (List.init n1 (fun _ -> "x")) edges1)
       ~g2:(graph (List.init n2 (fun _ -> "x")) edges2)
       ~mat ~xi:0.5 ())

let ml ?edges1 ?edges2 cands = ML.of_candidates (universe ?edges1 ?edges2 cands)
let good h v = List.rev (ML.fold (fun w u acc -> if w = v then u :: acc else acc) h [])
let nodes h = List.sort_uniq compare (ML.fold (fun v _ acc -> v :: acc) h [])
let check_good msg want h v = Alcotest.(check (list int)) msg want (good h v)
let upto n = List.init n Fun.id

let test_of_candidates () =
  let h = ml [ [ 2; 1 ]; []; [ 3 ]; upto 63; upto 130 ] in
  Alcotest.(check int) "size skips empty rows" 4 (ML.size h);
  check_good "good 0 ascending" [ 1; 2 ] h 0;
  check_good "absent node" [] h 1;
  check_good "a row of one full word" (upto 63) h 3;
  check_good "a row of three words" (upto 130) h 4;
  Alcotest.(check (list int)) "nodes" [ 0; 2; 3; 4 ] (nodes h)

let test_of_pairs () =
  let u = universe [ []; [ 2; 7 ]; []; [ 4; 5; 6 ] ] in
  let h = ML.of_pairs u [ (3, 5); (1, 2); (3, 4); (1, 2) ] in
  Alcotest.(check (list int)) "nodes ascending" [ 1; 3 ] (nodes h);
  check_good "rows ascending" [ 4; 5 ] h 3;
  Alcotest.(check int) "duplicates collapse" 3 (ML.fold (fun _ _ n -> n + 1) h 0);
  Alcotest.(check bool) "no pairs, empty list" true (ML.is_empty (ML.of_pairs u []));
  Alcotest.check_raises "a pair outside the universe"
    (Invalid_argument "Matching_list.of_pairs: a pair outside the universe") (fun () ->
      ignore (ML.of_pairs u [ (1, 4) ]))

let test_pick_max_good () =
  let h = ml [ [ 1 ]; [ 1; 2; 3 ]; [ 1; 2 ]; [ 4; 5; 6 ] ] in
  Alcotest.(check (pair int int)) "largest good, smallest id on a tie" (1, 1)
    (ML.take h `First);
  Alcotest.check_raises "empty list"
    (Invalid_argument "Matching_list.take: empty list") (fun () ->
      ignore (ML.take (ml []) `First))

let test_pick_most_similar () =
  let g1 = graph [ "a" ] [] and g2 = graph [ "x"; "y" ] [] in
  let mat = Simmat.create ~n1:1 ~n2:2 in
  let take () =
    ML.take (ML.of_candidates (ML.universe (Instance.make ~g1 ~g2 ~mat ~xi:0.5 ()))) `Best_sim
  in
  Simmat.set mat 0 0 0.6;
  Simmat.set mat 0 1 0.9;
  Alcotest.(check (pair int int)) "max similarity" (0, 1) (take ());
  Simmat.set mat 0 0 0.9;
  Alcotest.(check (pair int int)) "ties to the smallest id" (0, 0) (take ())

let test_move_to_minus_and_split () =
  (* one step on (0, 1), pattern edge 0 -> 1: 0's other candidate, the
     child's candidate 1 does not reach and the target 1 elsewhere go to
     H⁻; the rest stays, in place, as H⁺ *)
  let h = ml ~edges1:[ (0, 1) ] ~edges2:[ (1, 3) ] [ [ 1; 2 ]; [ 3; 4 ]; [ 1; 5 ]; [ 6 ] ] in
  Alcotest.(check (pair int int)) "the pair taken" (0, 1) (ML.take h `First);
  ML.prune_target h 1;
  let hminus = ML.finish h in
  Alcotest.(check (list int)) "H+ drops the taken node" [ 1; 2; 3 ] (nodes h);
  check_good "H+ keeps the reachable" [ 3 ] h 1;
  check_good "H+ loses the exhausted target" [ 5 ] h 2;
  check_good "H+ untouched node" [ 6 ] h 3;
  Alcotest.(check (list int)) "H- holds the moved nodes" [ 0; 1; 2 ] (nodes hminus);
  check_good "H- gets the other candidates" [ 2 ] hminus 0;
  check_good "H- gets the pruned" [ 4 ] hminus 1;
  check_good "H- gets the target" [ 1 ] hminus 2

let test_split_merges_and_drops () =
  (* pattern 0 <-> 1 and 0 -> 2, step on (0, 7): node 1 loses 3 to its
     out-edge and 1 to its in-edge, and gets one sorted H⁻ row; node 2
     loses its only candidate and leaves H⁺ *)
  let h =
    ml ~edges1:[ (0, 1); (1, 0); (0, 2) ]
      ~edges2:[ (2, 7); (7, 2); (4, 7); (7, 4); (1, 7); (7, 3) ]
      [ [ 7; 8; 9; 10 ]; [ 1; 2; 3; 4 ]; [ 9 ] ]
  in
  Alcotest.(check (pair int int)) "the pair taken" (0, 7) (ML.take h `First);
  let hminus = ML.finish h in
  Alcotest.(check (list int)) "H+" [ 1 ] (nodes h);
  check_good "H+ row" [ 2; 4 ] h 1;
  Alcotest.(check (list int)) "H- nodes" [ 0; 1; 2 ] (nodes hminus);
  check_good "H- other candidates" [ 8; 9; 10 ] hminus 0;
  check_good "H- merged row" [ 1; 3 ] hminus 1;
  check_good "H- exhausted node" [ 9 ] hminus 2

let test_copy_is_independent () =
  let h = ml [ [ 1; 2 ]; [ 3 ] ] in
  let h' = ML.copy h in
  ignore (ML.take h' `First);
  ignore (ML.finish h');
  ML.remove_pairs h' [ (1, 3) ];
  Alcotest.(check bool) "copy consumed" true (ML.is_empty h');
  check_good "original row 0" [ 1; 2 ] h 0;
  check_good "original row 1" [ 3 ] h 1

let test_remove_pairs () =
  let h = ml [ [ 1; 2 ]; [ 3 ] ] in
  ML.remove_pairs h [ (0, 1); (1, 3); (0, 9); (4, 1) ];
  Alcotest.(check int) "node 1 dropped when exhausted" 1 (ML.size h);
  check_good "pair removed" [ 2 ] h 0

let test_set_good_drops_empty () =
  let h = ml ~edges1:[ (0, 1) ] [ [ 1 ]; [ 2 ] ] in
  ignore (ML.take h `First);
  let hminus = ML.finish h in
  Alcotest.(check bool) "H+ dropped every exhausted node" true (ML.is_empty h);
  Alcotest.(check (list int)) "a lone candidate moves nowhere" [ 1 ] (nodes hminus)

let test_fold () =
  let h = ml [ [ 2; 1 ]; []; [ 0 ] ] in
  Alcotest.(check (list (pair int int))) "pairs in order"
    [ (0, 1); (0, 2); (2, 0) ]
    (List.rev (ML.fold (fun v u acc -> (v, u) :: acc) h []))

let suite =
  [
    ( "matching_list",
      [
        Alcotest.test_case "of_candidates" `Quick test_of_candidates;
        Alcotest.test_case "of_pairs" `Quick test_of_pairs;
        Alcotest.test_case "pick = max good" `Quick test_pick_max_good;
        Alcotest.test_case "pick = most similar" `Quick test_pick_most_similar;
        Alcotest.test_case "step: H+ in place, fresh H-" `Quick
          test_move_to_minus_and_split;
        Alcotest.test_case "step: merged rows, exhausted nodes" `Quick
          test_split_merges_and_drops;
        Alcotest.test_case "copy shares nothing" `Quick test_copy_is_independent;
        Alcotest.test_case "remove_pairs" `Quick test_remove_pairs;
        Alcotest.test_case "empty entries dropped" `Quick test_set_good_drops_empty;
        Alcotest.test_case "fold" `Quick test_fold;
      ] );
  ]
