(* Bench_gate, the one gate every gated bench suite reports through: the row
   schema survives a write and a read, the baseline rules (steps +20 %,
   wall times +20 % plus 0.25 s, a missing tracked row is a violation),
   guards pass at their bound and fail past it, non-finite observations
   fail, and the liveness check reports a check that cannot trip. *)

module Gate = Bench_gate

let row ?(suite = "s") ?(unit = "steps") instance metric value =
  { Gate.suite; instance; metric; unit; value }

let violations = Alcotest.(list string)

let contains ~sub s =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_round_trip () =
  let rows =
    [
      row "card-12x20/legacy" "steps" 2298.;
      row ~unit:"s" "card-12x20/legacy" "seconds" 0.011196;
      row ~unit:"objective" "sim-14x20/mwc" "optimum" 5.575;
      row ~unit:"s" "a" "tiny" 1.234567890123e-9;
      row ~unit:"x" "a" "third" (1. /. 3.);
      row ~unit:"%" "a" "negative" (-2.51);
      row ~suite:"other" ~unit:"steps" "b" "large" 1e20;
    ]
  in
  let file = Filename.temp_file "bench_gate" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Out_channel.with_open_text file (fun oc ->
          output_string oc
            (Gate.report ~suite:"s" ~seed:7 rows
               [ Gate.at_most "a guard is not a row" 1. 2. ]));
      let back = Gate.read_rows file in
      Alcotest.(check int) "row count" (List.length rows) (List.length back);
      List.iter2
        (fun a b ->
          Alcotest.(check string) "key" (Gate.key a) (Gate.key b);
          Alcotest.(check string) "unit" a.Gate.unit b.Gate.unit;
          (* bit for bit, so a rewritten baseline keeps every digit *)
          Alcotest.(check bool)
            (Printf.sprintf "%s value %h" (Gate.key a) a.Gate.value)
            true
            (Int64.equal
               (Int64.bits_of_float a.Gate.value)
               (Int64.bits_of_float b.Gate.value)))
        rows back)

let test_counts_over_100 () =
  let run =
    [ row "i1" "steps" 2298.; row "i2" "steps" 69.; row "i3" "steps" 8. ]
  in
  let scaled =
    List.map (fun r -> { r with Gate.value = r.Gate.value /. 100. }) run
  in
  Alcotest.check violations "the run against itself" []
    (Gate.regressions ~baseline:run run);
  Alcotest.(check int) "one violation per tracked row" 3
    (List.length (Gate.regressions ~baseline:scaled run));
  Alcotest.check violations "so every step row is live" []
    (Gate.dead_checks ~baseline:run run [])

let test_missing_row () =
  let baseline = [ row "i1" "steps" 10.; row ~unit:"s" "i2" "seconds" 0.5 ] in
  let run = [ row "i1" "steps" 10. ] in
  match Gate.regressions ~baseline run with
  | [ v ] ->
      Alcotest.(check bool) ("names the missing row: " ^ v) true
        (contains ~sub:"s/i2/seconds" v)
  | vs -> Alcotest.failf "expected one violation, got %d" (List.length vs)

let test_untracked_units () =
  (* only steps and wall-time rows are held to the baseline *)
  let baseline = [ row ~unit:"objective" "i" "optimum" 8. ] in
  Alcotest.check violations "an optimum row is reported, not tracked" []
    (Gate.regressions ~baseline [])

let test_step_and_time_rules () =
  let steps = [ row "i" "steps" 100. ] in
  let check name expected value =
    Alcotest.(check int) name expected
      (List.length
         (Gate.regressions ~baseline:steps [ row "i" "steps" value ]))
  in
  check "steps at +20% pass" 0 120.;
  check "steps past +20% fail" 1 121.;
  let base = 1.0 in
  let at = (base *. 1.2) +. 0.25 in
  let time value =
    List.length
      (Gate.regressions
         ~baseline:[ row ~unit:"s" "i" "seconds" base ]
         [ row ~unit:"s" "i" "seconds" value ])
  in
  Alcotest.(check int) "time within the fraction plus floor passes" 0 (time at);
  Alcotest.(check int) "time beyond it fails" 1 (time (at +. 1e-6));
  Alcotest.(check int) "a NaN time fails" 1 (time Float.nan)

let test_guard_kinds () =
  let pass name g expected =
    Alcotest.(check bool) name expected (Gate.passes g)
  in
  pass "at_least at its bound" (Gate.at_least "g" 10. 10.) true;
  pass "at_least past its bound" (Gate.at_least "g" 9.999 10.) false;
  pass "at_most at its bound" (Gate.at_most "g" 2. 2.) true;
  pass "at_most past its bound" (Gate.at_most "g" 2.001 2.) false;
  (* strictly below: the recorded bound is the float just under *)
  pass "below rejects equality" (Gate.below "g" 0.5 0.5) false;
  pass "below accepts the float just under"
    (Gate.below "g" (Float.pred 0.5) 0.5)
    true

let test_non_finite () =
  List.iter
    (fun (name, g) -> Alcotest.(check bool) name false (Gate.passes g))
    [
      ("NaN at_most", Gate.at_most "g" Float.nan 2.);
      ("NaN at_least", Gate.at_least "g" Float.nan 2.);
      ("infinite speedup", Gate.at_least "g" Float.infinity 10.);
      ("-infinite overhead", Gate.at_most "g" Float.neg_infinity 2.);
    ]

let test_liveness () =
  Alcotest.check violations "ordinary guards trip at an impossible bound" []
    (Gate.dead_checks ~baseline:[] []
       [
         Gate.at_least "speedup" 16.6 10.;
         Gate.at_most "overhead" 0.4 2.;
         Gate.at_most "mismatches" 0. 0.;
         Gate.below "seconds" 0.04 0.6;
       ]);
  (match
     Gate.dead_checks ~baseline:[] [] [ Gate.at_least "runaway" 5e6 10. ]
   with
  | [ v ] ->
      Alcotest.(check bool) ("names the guard: " ^ v) true
        (contains ~sub:"runaway" v)
  | vs -> Alcotest.failf "expected one dead guard, got %d" (List.length vs));
  (* a step row so far under its baseline that a hundredth still passes *)
  Alcotest.(check int) "a step row that cannot trip" 1
    (List.length
       (Gate.dead_checks
          ~baseline:[ row "i" "steps" 100. ]
          [ row "i" "steps" 1. ]
          []))

let suite =
  [
    ( "bench_gate",
      [
        Alcotest.test_case "rows survive a write then read" `Quick
          test_round_trip;
        Alcotest.test_case "counts / 100: one violation per row" `Quick
          test_counts_over_100;
        Alcotest.test_case "missing tracked row" `Quick test_missing_row;
        Alcotest.test_case "untracked units" `Quick test_untracked_units;
        Alcotest.test_case "step and time rules" `Quick
          test_step_and_time_rules;
        Alcotest.test_case "guard kinds at and past the bound" `Quick
          test_guard_kinds;
        Alcotest.test_case "non-finite observations fail" `Quick
          test_non_finite;
        Alcotest.test_case "liveness reports what cannot trip" `Quick
          test_liveness;
      ] );
  ]
