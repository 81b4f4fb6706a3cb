open Helpers
module Scc = Phom_graph.Scc

let two_cycles () =
  (* 0↔1 → 2↔3, plus isolated 4 *)
  graph [ "a"; "b"; "c"; "d"; "e" ]
    [ (0, 1); (1, 0); (1, 2); (2, 3); (3, 2) ]

let test_components () =
  let g = two_cycles () in
  let scc = Scc.compute g in
  Alcotest.(check int) "count" 3 scc.Scc.count;
  Alcotest.(check bool) "0 and 1 together" true (scc.Scc.comp.(0) = scc.Scc.comp.(1));
  Alcotest.(check bool) "2 and 3 together" true (scc.Scc.comp.(2) = scc.Scc.comp.(3));
  Alcotest.(check bool) "separate" true (scc.Scc.comp.(0) <> scc.Scc.comp.(2));
  (* reverse topological numbering: the 0-1 component points at the 2-3
     component, so it gets the larger id *)
  Alcotest.(check bool) "reverse topo ids" true
    (scc.Scc.comp.(0) > scc.Scc.comp.(2))

let test_members_sizes () =
  let g = two_cycles () in
  let scc = Scc.compute g in
  let members = Scc.members scc in
  Alcotest.(check (list int)) "members of comp of 0" [ 0; 1 ]
    members.(scc.Scc.comp.(0));
  Alcotest.(check int) "sizes sum" 5
    (Array.fold_left ( + ) 0 (Scc.sizes scc))

let test_trivial () =
  (* a self-loop, a plain node, and a 2-cycle *)
  let g = graph [ "a"; "b"; "c"; "d" ] [ (0, 0); (0, 1); (2, 3); (3, 2) ] in
  let scc = Scc.compute g in
  let cyclic = Scc.cyclic g scc in
  Alcotest.(check bool) "self loop cyclic" true cyclic.(scc.Scc.comp.(0));
  Alcotest.(check bool) "plain node acyclic" false cyclic.(scc.Scc.comp.(1));
  Alcotest.(check bool) "2-cycle cyclic" true cyclic.(scc.Scc.comp.(2))

(* [Scc.successors] as one array per component *)
let successors g scc =
  let start, succ = Scc.successors g scc in
  Array.init scc.Scc.count (fun c ->
      Array.sub succ start.(c) (start.(c + 1) - start.(c)))

let test_condensation_edges () =
  let g = two_cycles () in
  let scc = Scc.compute g in
  let succ = successors g scc in
  let c01 = scc.Scc.comp.(0) and c23 = scc.Scc.comp.(2) and c4 = scc.Scc.comp.(4) in
  Alcotest.(check (array int)) "one cross edge, direction" [| c23 |] succ.(c01);
  Alcotest.(check (array int)) "sink" [||] succ.(c23);
  Alcotest.(check (array int)) "isolated" [||] succ.(c4);
  (* 0↔1 reaches {2,3} twice and 4 once; member 0's edges are met first,
     and each successor component is listed once *)
  let g =
    graph [ "a"; "b"; "c"; "d"; "e" ]
      [ (0, 1); (0, 4); (1, 0); (1, 2); (1, 3); (2, 3); (3, 2) ]
  in
  let scc = Scc.compute g in
  let succ = successors g scc in
  Alcotest.(check (array int)) "first-seen order, deduplicated"
    [| scc.Scc.comp.(4); scc.Scc.comp.(2) |]
    succ.(scc.Scc.comp.(0))

let test_deep_path_no_stack_overflow () =
  let n = 200_000 in
  let g =
    D.make
      ~labels:(Array.make n "x")
      ~edges:(List.init (n - 1) (fun i -> (i, i + 1)))
  in
  let scc = Scc.compute g in
  Alcotest.(check int) "all singletons" n scc.Scc.count

let prop_mutual_reachability =
  qtest ~count:60 "scc: same component iff mutually reachable" (digraph_gen ())
    print_digraph (fun g ->
      let scc = Scc.compute g in
      let module T = Phom_graph.Traversal in
      let reach = Array.init (D.n g) (fun v -> T.reachable g v) in
      let ok = ref true in
      for u = 0 to D.n g - 1 do
        for v = 0 to D.n g - 1 do
          let together = scc.Scc.comp.(u) = scc.Scc.comp.(v) in
          let mutual = Bitset.mem reach.(u) v && Bitset.mem reach.(v) u in
          if together <> mutual then ok := false
        done
      done;
      !ok)

let prop_edge_numbering =
  qtest ~count:60 "scc: cross edges go to smaller ids" (digraph_gen ())
    print_digraph (fun g ->
      let scc = Scc.compute g in
      D.fold_edges
        (fun u v acc ->
          acc
          && (scc.Scc.comp.(u) = scc.Scc.comp.(v) || scc.Scc.comp.(u) > scc.Scc.comp.(v)))
        g true)

let prop_successors =
  qtest ~count:60 "scc: successors are the distinct cross edges" (digraph_gen ())
    print_digraph (fun g ->
      let scc = Scc.compute g in
      let listed =
        List.concat
          (Array.to_list
             (Array.mapi
                (fun c ds -> List.map (fun d -> (c, d)) (Array.to_list ds))
                (successors g scc)))
      in
      let cross =
        D.fold_edges
          (fun u v acc ->
            let c = scc.Scc.comp.(u) and d = scc.Scc.comp.(v) in
            if c <> d then (c, d) :: acc else acc)
          g []
      in
      List.length listed = List.length (List.sort_uniq compare listed)
      && List.sort compare listed = List.sort_uniq compare cross)

let suite =
  [
    ( "scc",
      [
        Alcotest.test_case "two cycles" `Quick test_components;
        Alcotest.test_case "members and sizes" `Quick test_members_sizes;
        Alcotest.test_case "triviality" `Quick test_trivial;
        Alcotest.test_case "condensation edges" `Quick test_condensation_edges;
        Alcotest.test_case "200k-node path (iterative Tarjan)" `Quick
          test_deep_path_no_stack_overflow;
        prop_mutual_reachability;
        prop_edge_numbering;
        prop_successors;
      ] );
  ]
