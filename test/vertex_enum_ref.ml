(* Test-only reference for [Vertex_enum.vertices]: the brute-force
   enumerator as it stood before the skip rules and the in-place solve —
   an allocating Gaussian elimination on every n-subset of hyperplanes,
   a packed feasibility scan, and greedy rank-order dedup through a grid
   hash probing the 3^n neighbouring cells.  The elimination is its own
   copy of the old [Mat.solve], so a change to the shared one in
   [lib/linalg] cannot move the reference with it.  The production
   enumerator must return exactly this vertex list, bit for bit and in
   the same order, and raise [Too_large] exactly when this does. *)

open Qsens_linalg
open Qsens_geom
module Pool = Qsens_parallel.Pool

module Old_mat = struct
  type t = { nr : int; nc : int; a : float array }

  let init nr nc f =
    { nr; nc; a = Array.init (nr * nc) (fun k -> f (k / nc) (k mod nc)) }

  let get m i j = m.a.((i * m.nc) + j)
  let set m i j x = m.a.((i * m.nc) + j) <- x

  let forward_eliminate aug n ncols =
    let sign = ref 1. in
    for k = 0 to n - 1 do
      let piv = ref k in
      for i = k + 1 to n - 1 do
        if Float.abs (get aug i k) > Float.abs (get aug !piv k) then piv := i
      done;
      if Float.abs (get aug !piv k) < 1e-12 then raise Mat.Singular;
      if !piv <> k then begin
        sign := -. !sign;
        for j = 0 to ncols - 1 do
          let t = get aug k j in
          set aug k j (get aug !piv j);
          set aug !piv j t
        done
      end;
      for i = k + 1 to n - 1 do
        let f = get aug i k /. get aug k k in
        if not (Float.equal f 0.) then
          for j = k to ncols - 1 do
            set aug i j (get aug i j -. (f *. get aug k j))
          done
      done
    done;
    !sign

  let solve m b =
    let n = m.nr in
    let aug = init n (n + 1) (fun i j -> if j = n then b.(i) else get m i j) in
    ignore (forward_eliminate aug n (n + 1));
    let x = Array.make n 0. in
    for i = n - 1 downto 0 do
      let acc = ref (get aug i n) in
      for j = i + 1 to n - 1 do
        acc := !acc -. (get aug i j *. x.(j))
      done;
      x.(i) <- !acc /. get aug i i
    done;
    x
end

let advance_subset n k idx =
  let rec bump i =
    if i < 0 then false
    else if idx.(i) < n - (k - i) then begin
      idx.(i) <- idx.(i) + 1;
      for j = i + 1 to k - 1 do
        idx.(j) <- idx.(j - 1) + 1
      done;
      true
    end
    else bump (i - 1)
  in
  bump (k - 1)

module Grid = struct
  type t = {
    eps : float;
    dim : int;
    cells : (int list, Vec.t list) Hashtbl.t;
  }

  let create ~eps ~dim = { eps; dim; cells = Hashtbl.create 256 }

  let key g x =
    Array.to_list (Array.map (fun v -> int_of_float (Float.floor (v /. g.eps))) x)

  let mem g x =
    let base = Array.of_list (key g x) in
    let rec probe d acc =
      if d = g.dim then
        match Hashtbl.find_opt g.cells (List.rev acc) with
        | None -> false
        | Some ys ->
            List.exists (fun y -> Vec.norm_inf (Vec.sub x y) <= g.eps) ys
      else
        probe (d + 1) ((base.(d) - 1) :: acc)
        || probe (d + 1) (base.(d) :: acc)
        || probe (d + 1) ((base.(d) + 1) :: acc)
    in
    probe 0 []

  let add g x =
    let k = key g x in
    let prev = Option.value ~default:[] (Hashtbl.find_opt g.cells k) in
    Hashtbl.replace g.cells k (x :: prev)
end

let vertices ?(eps = 1e-7) ?(max_subsets = 200_000) ?pool hs =
  match hs with
  | [] -> []
  | h0 :: _ ->
      let n = Halfspace.dim h0 in
      let arr = Array.of_list hs in
      let count = Array.length arr in
      let total = Vertex_enum.count_subsets count n in
      if total > max_subsets then raise Vertex_enum.Too_large;
      if total = 0 then []
      else begin
        let normals = Kernel.pack (Array.map (fun h -> h.Halfspace.normal) arr) in
        let offsets = Array.map (fun h -> h.Halfspace.offset) arr in
        let satisfies_all x =
          let ok = ref true and i = ref 0 in
          while !ok && !i < count do
            if Kernel.dot_row normals !i x -. offsets.(!i) > eps then ok := false;
            incr i
          done;
          !ok
        in
        let solve idx =
          let m =
            Old_mat.init n n (fun i j -> (arr.(idx.(i))).Halfspace.normal.(j))
          in
          let b = Vec.init n (fun i -> (arr.(idx.(i))).Halfspace.offset) in
          match Old_mat.solve m b with
          | exception Mat.Singular -> None
          | x -> if satisfies_all x then Some x else None
        in
        let candidates ~start ~len =
          let acc = ref [] in
          if len > 0 then begin
            let idx = Vertex_enum.nth_subset count n start in
            let remaining = ref len in
            let more = ref true in
            while !remaining > 0 && !more do
              (match solve idx with
              | Some x -> acc := x :: !acc
              | None -> ());
              decr remaining;
              if !remaining > 0 then more := advance_subset count n idx
            done
          end;
          List.rev !acc
        in
        let streams =
          match pool with
          | Some p when Pool.domains p > 1 && total > 1 ->
              let chunks = Pool.auto_chunks ~domains:(Pool.domains p) ~n:total in
              let parts = Array.make chunks [] in
              Pool.run p
                (Array.init chunks (fun c ->
                     let lo, hi = Pool.chunk_bounds ~n:total ~chunks c in
                     (* qsens-lint: disable=P001 — each task writes only its own chunk slot *)
                     fun () -> parts.(c) <- candidates ~start:lo ~len:(hi - lo)));
              Array.to_list parts
          | _ -> [ candidates ~start:0 ~len:total ]
        in
        let grid = Grid.create ~eps ~dim:n in
        let out = ref [] in
        List.iter
          (List.iter (fun x ->
               if not (Grid.mem grid x) then begin
                 Grid.add grid x;
                 out := x :: !out
               end))
          streams;
        List.rev !out
      end
