(* greedyMatch line 4, trimMatching (paper Fig. 4), through a step of the
   matching list: taking (v, u) must keep exactly the neighbours'
   candidates that have a path to or from u, and move the rest to H⁻. *)

open Helpers
module ML = Phom.Matching_list

let rows h = List.rev (ML.fold (fun v u acc -> (v, u) :: acc) h [])
let good h v = List.filter_map (fun (w, u) -> if w = v then Some u else None) (rows h)

(* one step of the whole list: the pair taken, H⁺ and H⁻ *)
let step ?(pick = `Best_sim) t =
  let h = ML.of_candidates (ML.universe t) in
  let vu = ML.take h pick in
  let hminus = ML.finish h in
  (vu, h, hminus)

let check_good msg want h v = Alcotest.(check (list int)) msg want (good h v)

let test_prunes_children () =
  (* pattern a->b; data: a, unreachable b, reachable b, and a second a so
     that a ties b for the widest row *)
  let g1 = graph [ "a"; "b" ] [ (0, 1) ] in
  let g2 = graph [ "a"; "b"; "b"; "a" ] [ (0, 2) ] in
  let vu, h, hminus = step (eq_instance g1 g2) in
  Alcotest.(check (pair int int)) "a takes its first a" (0, 0) vu;
  check_good "child keeps reachable b" [ 2 ] h 1;
  check_good "pruned b in H-" [ 1 ] hminus 1;
  check_good "the other a in H-" [ 3 ] hminus 0

let test_prunes_parents () =
  (* pattern a->b, b's row the widest: its choice prunes a's candidates *)
  let g1 = graph [ "a"; "b" ] [ (0, 1) ] in
  let g2 = graph [ "a"; "a"; "b"; "b"; "b" ] [ (1, 2) ] in
  let vu, h, hminus = step (eq_instance g1 g2) in
  Alcotest.(check (pair int int)) "b takes its first b" (1, 2) vu;
  check_good "parent keeps the a that reaches" [ 1 ] h 0;
  check_good "the other a in H-" [ 0 ] hminus 0

let test_untouched_nodes () =
  (* a node not adjacent to v keeps its candidates *)
  let g1 = graph [ "a"; "b"; "c" ] [ (0, 1) ] in
  let g2 = graph [ "a"; "b"; "c" ] [ (0, 1) ] in
  let _, h, hminus = step (eq_instance g1 g2) in
  check_good "c untouched" [ 2 ] h 2;
  Alcotest.(check bool) "nothing moved" true (ML.is_empty hminus)

let test_two_cycle () =
  (* pattern w <-> v: w takes 3, and v keeps only the candidate that both
     reaches 3 and is reached from it; 5 fails one edge, 2 the other *)
  let g1 = graph [ "w"; "v" ] [ (0, 1); (1, 0) ] in
  let g2 = graph (List.init 6 (fun _ -> "x")) [ (3, 4); (4, 3); (5, 3); (4, 2) ] in
  let mat = Simmat.create ~n1:2 ~n2:6 in
  for u = 0 to 5 do
    Simmat.set mat 0 u (if u = 3 then 1. else 0.6)
  done;
  List.iter (fun u -> Simmat.set mat 1 u 1.) [ 0; 2; 4; 5 ];
  let vu, h, hminus = step (Instance.make ~g1 ~g2 ~mat ~xi:0.5 ()) in
  Alcotest.(check (pair int int)) "w takes 3" (0, 3) vu;
  Alcotest.(check (list (pair int int))) "v keeps 4" [ (1, 4) ] (rows h);
  Alcotest.(check (list (pair int int))) "the rest moves"
    [ (0, 0); (0, 1); (0, 2); (0, 4); (0, 5); (1, 0); (1, 2); (1, 5) ]
    (rows hminus)

let test_self_loop () =
  (* a looped node is its own neighbour, but it has left the list when its
     neighbours are trimmed: its step moves only its other candidates *)
  let g1 = graph [ "x"; "y" ] [ (0, 0) ] in
  let g2 = graph [ "x"; "x"; "x"; "x"; "x"; "y" ] [ (0, 1); (1, 2); (3, 4); (4, 3) ] in
  let vu, h, hminus = step ~pick:`First (eq_instance g1 g2) in
  Alcotest.(check (pair int int)) "the looped node takes a cycle node" (0, 3) vu;
  Alcotest.(check (list (pair int int))) "the other node is not trimmed" [ (1, 5) ] (rows h);
  Alcotest.(check (list (pair int int))) "only its own row moves" [ (0, 4) ] (rows hminus)

(* the reference step: what H⁺ keeps of node [w]'s [before] row when
   (v, u) is taken, by closure probes *)
let kept (t : Instance.t) ~v ~u ~target w before =
  List.filter
    (fun u' ->
      ((not (D.has_edge t.g1 w v)) || BM.get t.tc2 u' u)
      && ((not (D.has_edge t.g1 v w)) || BM.get t.tc2 u u')
      && not (target && u' = u))
    before

let prop_trim_sound_and_complete =
  (* down both branches of up to 40 steps: the node with the largest row
     (smallest id) takes its most similar candidate (smallest id), every
     other row keeps exactly its path-consistent candidates (and, under a
     capacity, loses u), and H⁻ holds exactly what the step moved *)
  qtest ~count:150 "trim: keeps exactly the consistent candidates"
    (instance_gen ~max_n1:7 ~max_n2:9 ()) print_instance (fun t ->
      let target = D.n t.g1 mod 2 = 0 in
      let ok = ref true and budget = ref 40 in
      let rec walk h =
        if (not (ML.is_empty h)) && !budget > 0 then begin
          decr budget;
          let before = rows h in
          let vs = List.sort_uniq compare (List.map fst before) in
          let row w = List.filter_map (fun (x, u) -> if x = w then Some u else None) before in
          let widest =
            List.fold_left
              (fun b w -> if List.length (row w) > List.length (row b) then w else b)
              (List.hd vs) vs
          in
          let best =
            List.fold_left
              (fun b u -> if Simmat.get t.mat widest u > Simmat.get t.mat widest b then u else b)
              (List.hd (row widest)) (row widest)
          in
          let v, u = ML.take h `Best_sim in
          if target then ML.prune_target h u;
          let hminus = ML.finish h in
          if (v, u) <> (widest, best) then ok := false;
          List.iter
            (fun w ->
              let plus, minus =
                if w = v then ([], List.filter (( <> ) u) (row w))
                else
                  let k = kept t ~v ~u ~target w (row w) in
                  (k, List.filter (fun u' -> not (List.mem u' k)) (row w))
              in
              if good h w <> plus || good hminus w <> minus then ok := false)
            vs;
          walk h;
          walk hminus
        end
      in
      walk (ML.of_candidates (ML.universe t));
      !ok)

let suite =
  [
    ( "trim",
      [
        Alcotest.test_case "prunes children" `Quick test_prunes_children;
        Alcotest.test_case "prunes parents" `Quick test_prunes_parents;
        Alcotest.test_case "leaves non-neighbours alone" `Quick test_untouched_nodes;
        Alcotest.test_case "a 2-cycle prunes both ways" `Quick test_two_cycle;
        Alcotest.test_case "a self-loop trims nothing" `Quick test_self_loop;
        prop_trim_sound_and_complete;
      ] );
  ]
