(* Normalized revenue vectors (UBP, UIP, LPIP, CIP, Layering,
   XOS-LPIP+CIP) of the benchmark's cells, recorded from
   [Runner.run_cell] at the repository's default seed 42 under
   uniform[1,100] valuations and the Quick profile. A cell must
   reproduce its vector to 1e-9 relative. *)

module WI = Qp_experiments.Workload_instances

let table =
  [
    ( ("ssb", WI.Default),
      [ 0.40486729245705533; 0.21352529548647695; 0.46213786299858856;
        0.22549468120012861; 0.28169067695229899; 0.32777343709661583 ] );
    ( ("uniform", WI.Default),
      [ 0.53684005955363978; 0.48357598218713022; 0.68667313488870374;
        0.426360855760055; 0.23834858190603092; 0.49620223325545409 ] );
    ( ("skewed", WI.Default),
      [ 0.48859211009668729; 0.3188388464750912; 0.30257100255273178;
        0.69323182242230419; 0.22974742628870148; 0.69465906881458694 ] );
    ( ("ssb", WI.Tiny),
      [ 0.10871436556717194; 0.075634710677799866; 0.10672278950676768;
        0.067078970987086387; 0.058030917905909668; 0.066949726134248377 ] );
    ( ("uniform", WI.Tiny),
      [ 0.51098511076279529; 0.4521107393053429; 0.84000496034075467;
        0.56090168497041759; 0.39363205331312612; 0.57032014057796443 ] );
    ( ("skewed", WI.Tiny),
      [ 0.4218587304117789; 0.26786351950607951; 0.27739987014364592;
        0.45054007251592865; 0.16734320549004869; 0.45263020659159353 ] );
  ]

let find ~scale key = List.assoc_opt (key, scale) table

(* Normalized revenue of the LPIP pricing [qpricing serve skewed] stands
   on at seed 42, summed over the sold replies of one batch (to 1e-9
   relative: the batch order, hence the summation order, is seeded). *)
let served = [ (WI.Default, 0.29066825682896003); (WI.Tiny, 0.18273061844897637) ]
