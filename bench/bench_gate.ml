(* The one gate every gated bench suite goes through.

   A suite measures, then hands [finish] its rows and guards:

   - a row is one measured value, keyed by (suite, instance, metric) and
     carrying its unit; the JSON report and every checked-in baseline in
     bench/baselines/ share one layout, one row per line, so a report
     copied over a baseline is the next baseline;
   - a guard is a suite's own bound as data: the observed value, the bound
     and which side of it is better;
   - the baseline comparison tracks the baseline's "steps" and "s" rows:
     budget steps may grow by at most 20 %, wall times by at most 20 % plus
     0.25 s (runners differ; steps are the exact signal);
   - liveness: every run also checks each guard against a bound no run can
     meet, and each tracked step row against its baseline value divided by
     100, and fails unless every one of those checks trips.

   [finish] prints the rows and guards, writes the report and exits
   non-zero on any violation; nothing else in bench/ writes a report, reads
   a baseline or exits non-zero on a measurement. *)

type row = {
  suite : string;
  instance : string;
  metric : string;
  unit : string;
  value : float;
}

type better = Higher | Lower

type guard = { name : string; observed : float; bound : float; better : better }

let at_least name observed bound = { name; observed; bound; better = Higher }
let at_most name observed bound = { name; observed; bound; better = Lower }

(* strictly below [bound] is at most the largest float under it *)
let below name observed bound = at_most name observed (Float.pred bound)

(* no item of [xs] is [bad]: a count held to at most 0 *)
let none name bad xs =
  at_most name (float_of_int (List.length (List.filter bad xs))) 0.

let side g = match g.better with Higher -> ">=" | Lower -> "<="

let passes g =
  Float.is_finite g.observed
  &&
  match g.better with
  | Higher -> g.observed >= g.bound
  | Lower -> g.observed <= g.bound

(* ---- the baseline comparison ---- *)

let step_regress = 0.20
let time_regress = 0.20
let time_floor = 0.25

(* the largest value a run may report for a tracked baseline row *)
let limit b =
  match b.unit with
  | "steps" -> Some (ceil (b.value *. (1. +. step_regress)))
  | "s" -> Some ((b.value *. (1. +. time_regress)) +. time_floor)
  | _ -> None

let key r = Printf.sprintf "%s/%s/%s" r.suite r.instance r.metric

let regressions ~baseline rows =
  List.filter_map
    (fun b ->
      match limit b with
      | None -> None
      | Some lim -> (
          match
            List.find_opt
              (fun r ->
                r.suite = b.suite && r.instance = b.instance
                && r.metric = b.metric)
              rows
          with
          | None -> Some (key b ^ ": tracked row missing from this run")
          | Some r when r.value <= lim -> None
          | Some r ->
              Some
                (Printf.sprintf "%s regressed: %g %s > %g (baseline %g)"
                   (key b) r.value b.unit lim b.value)))
    baseline

(* ---- liveness ---- *)

(* a million units past the real bound, on the side the guard rejects *)
let impossible g =
  let shift = match g.better with Higher -> 1e6 | Lower -> -1e6 in
  { g with bound = g.bound +. shift }

let dead_checks ~baseline rows guards =
  List.filter_map
    (fun g ->
      let g' = impossible g in
      if passes g' then
        Some
          (Printf.sprintf "guard %S passes even the impossible bound %g"
             g.name g'.bound)
      else None)
    guards
  @ List.filter_map
      (fun b ->
        if
          b.unit = "steps"
          && regressions ~baseline:[ { b with value = b.value /. 100. } ] rows
             = []
        then
          Some (key b ^ ": passes even its baseline steps divided by 100")
        else None)
      baseline

(* ---- the report ---- *)

(* shortest of two round-tripping renderings, so a baseline's figures
   survive a read and a rewrite digit for digit *)
let number v =
  if not (Float.is_finite v) then "null"
  else
    let s = Printf.sprintf "%.15g" v in
    if float_of_string s = v then s else Printf.sprintf "%.17g" v

let row_json r =
  Printf.sprintf
    "    {\"suite\": %S, \"instance\": %S, \"metric\": %S, \"unit\": %S, \
     \"value\": %s}"
    r.suite r.instance r.metric r.unit (number r.value)

let guard_json g =
  Printf.sprintf
    "    {\"guard\": %S, \"observed\": %s, \"bound\": %s, \"better\": %S, \
     \"pass\": %b}"
    g.name (number g.observed) (number g.bound)
    (match g.better with Higher -> "higher" | Lower -> "lower")
    (passes g)

let report ~suite ~seed rows guards =
  Printf.sprintf
    "{\n\
    \  \"suite\": %S,\n\
    \  \"seed\": %d,\n\
    \  \"rows\": [\n\
     %s\n\
    \  ],\n\
    \  \"guards\": [\n\
     %s\n\
    \  ]\n\
     }\n"
    suite seed
    (String.concat ",\n" (List.map row_json rows))
    (String.concat ",\n" (List.map guard_json guards))

(* the value of ["key": ...] on a one-row line: a quoted string, or the
   text up to the next ',' or '}' *)
let field line k =
  let pat = Printf.sprintf "\"%s\": " k in
  let n = String.length line and p = String.length pat in
  let rec find i =
    if i + p > n then None
    else if String.sub line i p = pat then Some (i + p)
    else find (i + 1)
  in
  let upto start stop_at =
    let j = ref start in
    while !j < n && not (List.mem line.[!j] stop_at) do
      incr j
    done;
    String.sub line start (!j - start)
  in
  match find 0 with
  | None -> None
  | Some i when i < n && line.[i] = '"' -> Some (upto (i + 1) [ '"' ])
  | Some i -> Some (String.trim (upto i [ ','; '}' ]))

let parse_row line =
  match
    ( field line "suite",
      field line "instance",
      field line "metric",
      field line "unit",
      Option.bind (field line "value") float_of_string_opt )
  with
  | Some suite, Some instance, Some metric, Some unit, Some value ->
      Some { suite; instance; metric; unit; value }
  | _ -> None

let read_rows file =
  In_channel.with_open_text file In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter_map parse_row

(* ---- finish ---- *)

let cell unit v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if unit = "s" then Printf.sprintf "%.6f" v
  else Printf.sprintf "%.4g" v

(* rows pivoted: one line per instance, one column per metric *)
let print_rows rows =
  let distinct f =
    List.fold_left
      (fun acc r -> if List.mem (f r) acc then acc else f r :: acc)
      [] rows
    |> List.rev
  in
  let metrics = distinct (fun r -> (r.metric, r.unit)) in
  Util.table
    ("instance"
    :: List.map
         (fun (m, u) -> if m = u then m else Printf.sprintf "%s (%s)" m u)
         metrics)
    (List.map
       (fun inst ->
         inst
         :: List.map
              (fun (m, u) ->
                match
                  List.find_opt
                    (fun r -> r.instance = inst && r.metric = m && r.unit = u)
                    rows
                with
                | Some r -> cell r.unit r.value
                | None -> "")
              metrics)
       (distinct (fun r -> r.instance)))

let print_guards guards =
  Util.table
    [ "guard"; "observed"; "bound"; "" ]
    (List.map
       (fun g ->
         [
           g.name;
           Printf.sprintf "%.6g" g.observed;
           Printf.sprintf "%s %.6g" (side g) g.bound;
           (if passes g then "ok" else "FAIL");
         ])
       guards)

let finish ~suite ~seed ~out ?baseline rows guards =
  print_rows rows;
  print_newline ();
  print_guards guards;
  let tracked, baseline_failures =
    match baseline with
    | None -> ([], [])
    | Some file -> (
        match read_rows file with
        | [] -> ([], [ "no rows read from baseline " ^ file ])
        | b -> (b, regressions ~baseline:b rows))
  in
  let failures =
    List.filter_map
      (fun g ->
        if passes g then None
        else
          Some
            (Printf.sprintf "guard %S failed: observed %g, bound %s %g" g.name
               g.observed (side g) g.bound))
      guards
    @ baseline_failures
    @ dead_checks ~baseline:tracked rows guards
  in
  Out_channel.with_open_text out (fun oc ->
      output_string oc (report ~suite ~seed rows guards));
  Util.note "wrote %s" out;
  Option.iter
    (fun file ->
      Util.note "baseline %s: %d tracked rows" file
        (List.length (List.filter (fun b -> limit b <> None) tracked)))
    baseline;
  match failures with
  | [] ->
      Util.note "gate: all %d guard(s) hold; each guard and step row trips \
                 when its bound is made impossible"
        (List.length guards)
  | fs ->
      List.iter (Printf.eprintf "bench %s: %s\n" suite) fs;
      Printf.eprintf "bench %s: %d gate violation(s)\n%!" suite
        (List.length fs);
      exit 1
