module D = Phom_graph.Digraph
module BM = Phom_graph.Bitmatrix
module Simmat = Phom_sim.Simmat

(* Repair a mapping found against an earlier version of the instance so it
   is valid for the current one. Local by construction: pairs the edit did
   not disturb survive untouched, so the repaired incumbent keeps most of
   the previous answer's quality after a small edit.

   1. drop pairs that are no longer admissible candidates (out of range,
      below the similarity threshold, or a self-looped pattern node mapped
      to a node off every cycle);
   2. make it a function again (first pair per pattern node wins; under
      injectivity first pair per data node too);
   3. while some pattern edge between mapped nodes has no non-empty path
      between the images, drop the mapped node breaking the most edges
      (ties: the smallest node id, so repair is deterministic). A round
      walks the out-edges of the mapped nodes against an image array,
      so it costs O(|m| + their out-degrees). *)

let repair ?(injective = false) (t : Instance.t) m =
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
  (* img.(v) is the image of v, or -1 while v is unmapped; viol.(v) counts
     the broken edges at v, and only mapped nodes are ever bumped *)
  let img = Array.make (D.n t.g1) (-1) and viol = Array.make (D.n t.g1) 0 in
  let rec fix m =
    List.iter (fun (v, _) -> viol.(v) <- 0) m;
    let broken = ref false in
    List.iter
      (fun (v, u) ->
        Array.iter
          (fun v' ->
            let u' = img.(v') in
            if u' >= 0 && not (BM.get t.tc2 u u') then begin
              broken := true;
              viol.(v) <- viol.(v) + 1;
              viol.(v') <- viol.(v') + 1
            end)
          (D.succ t.g1 v))
      m;
    if not !broken then m
    else begin
      (* [m] is sorted by pattern node, so the first maximum is the
         smallest id among the worst *)
      let worst =
        List.fold_left
          (fun w (v, _) -> if w < 0 || viol.(v) > viol.(w) then v else w)
          (-1) m
      in
      img.(worst) <- -1;
      fix (List.filter (fun (v, _) -> v <> worst) m)
    end
  in
  let m = List.rev rev in
  List.iter (fun (v, u) -> img.(v) <- u) m;
  fix m
