(* Fit's contract against brute-force closure probes: random data graphs
   and candidate rows (empty ones, ones longer than a 63-bit word), edges
   both ways to one node and an edge back to the node's own row, queried
   at several placements, then again in reverse order so that later
   queries read masks built by earlier ones. *)

open Helpers
module Fit = Phom_graph.Fit
module G = Phom_graph.Generators

type case = {
  tc2 : BM.t;
  row : int array;
  others : int array array;  (* slot [s]'s candidate row *)
  edges : (int * int array * bool) array;
  off : int;
  queries : int array list;  (* [at] arrays, slot [s] at [off + s] *)
}

let case_gen : case QCheck.Gen.t =
 fun st ->
  let int a b = a + Random.State.int st (b - a + 1) in
  let n2 = int 1 150 in
  let m = Random.State.int st (1 + (n2 * int 1 3)) in
  let g2 = G.erdos_renyi ~rng:st ~n:n2 ~m:(min m (n2 * (n2 - 1) / 2)) ~labels:(fun _ -> "x") in
  (* distinct data nodes in random order, so positions differ from ids *)
  let row_of len =
    let all = Array.init n2 Fun.id in
    for i = n2 - 1 downto 1 do
      let j = Random.State.int st (i + 1) in
      let x = all.(i) in
      all.(i) <- all.(j);
      all.(j) <- x
    done;
    Array.sub all 0 len
  in
  let len () = match Random.State.int st 6 with 0 -> 0 | 1 -> n2 | _ -> int 0 n2 in
  let row = row_of (len ()) in
  let k = int 0 4 in
  (* slot [k] holds the node's own position: a self-loop edge *)
  let others = Array.append (Array.init k (fun _ -> row_of (len ()))) [| row |] in
  let edges = ref [] in
  for s = 0 to k do
    let out = Random.State.bool st and back = Random.State.int st 3 = 0 in
    if s < k || Random.State.bool st then edges := (s, others.(s), out) :: !edges;
    if s < k && back then edges := (s, others.(s), not out) :: !edges
  done;
  let off = int 0 3 in
  let query () =
    Array.init (off + k + 1) (fun i ->
        let s = i - off in
        if s < 0 then Random.State.int st 7
        else if Array.length others.(s) = 0 || Random.State.int st 4 = 0 then -1
        else Random.State.int st (Array.length others.(s)))
  in
  let nothing = Array.init (off + k + 1) (fun i -> if i < off then 5 else -1) in
  let queries = nothing :: List.init (int 1 8) (fun _ -> query ()) in
  { tc2 = TC.compute g2; row; others; edges = Array.of_list !edges; off; queries }

let print_case c =
  Printf.sprintf "row %d, others [%s], edges [%s], off %d, %d queries" (Array.length c.row)
    (String.concat "; " (Array.to_list (Array.map (fun r -> string_of_int (Array.length r)) c.others)))
    (String.concat "; "
       (Array.to_list (Array.map (fun (s, _, out) -> Printf.sprintf "%d%s" s (if out then ">" else "<")) c.edges)))
    c.off (List.length c.queries)

(* the positions of [row] whose node keeps every placed edge, by probes *)
let brute c at =
  List.filter
    (fun i ->
      Array.for_all
        (fun (s, other, out) ->
          let j = at.(c.off + s) in
          j < 0
          || if out then BM.get c.tc2 c.row.(i) other.(j) else BM.get c.tc2 other.(j) c.row.(i))
        c.edges)
    (List.init (Array.length c.row) Fun.id)

let prop_fit_matches_probes =
  qtest ~count:300 "fit: positions = closure probes, ascending" case_gen print_case (fun c ->
      let fit = Fit.make ~tc2:c.tc2 c.row c.edges in
      let ask at =
        let got = ref [] in
        Fit.iter fit at c.off (fun i -> got := i :: !got);
        let got = List.rev !got in
        if got <> brute c at then QCheck.Test.fail_reportf "differs from the probes";
        got
      in
      (* the first query places nothing: the whole row *)
      let whole = ask (List.hd c.queries) in
      if whole <> List.init (Array.length c.row) Fun.id then
        QCheck.Test.fail_reportf "nothing placed, not the whole row";
      List.iter
        (fun at ->
          let got = ask at in
          if got <> List.sort_uniq compare got then QCheck.Test.fail_reportf "not ascending")
        (c.queries @ List.rev c.queries);
      true)

let suite = [ ("fit", [ prop_fit_matches_probes ]) ]
