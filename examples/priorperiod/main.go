// Priorperiod runs the paper's query S1 (§4): the ratio of each month's
// sales to the corresponding month a year ago and a quarter ago, resolved
// through a read-only reference spreadsheet over the time dimension table
// (the paper's Table 1 mapping). The reference sheet plays the role of a
// join — but through the same hash access structure the formulas use.
package main

import (
	"fmt"
	"log"

	"sqlsheet"
)

func main() {
	db := sqlsheet.Open()
	// The bundled APB generator installs time_dt with the Table 1 mapping.
	if _, err := db.InstallAPB(sqlsheet.APBScale{Years: 2, Customers: 1, Channels: 1}); err != nil {
		log.Fatal(err)
	}
	db.MustExec(`CREATE TABLE f (p TEXT, m TEXT, s FLOAT)`)
	db.MustExec(`INSERT INTO f VALUES
		('dvd','1998-01',20), ('dvd','1998-10',40), ('dvd','1998-12',45),
		('dvd','1999-01',60), ('dvd','1999-03',90), ('dvd','1998-03',30),
		('vcr','1998-01',10), ('vcr','1999-01',15)`)

	q := `
		SELECT p, m, s, r_yago, r_qago FROM
		 (SELECT p, m, s, r_yago, r_qago FROM f GROUP BY p, m
		  SPREADSHEET
		    REFERENCE prior ON (SELECT m, m_yago, m_qago FROM time_dt)
		      DBY(m) MEA(m_yago, m_qago)
		    PBY(p) DBY (m) MEA (sum(s) s, r_yago, r_qago)
		  RULES UPDATE
		  (
		  F1: r_yago[*] = s[cv(m)] / s[m_yago[cv(m)]],
		  F2: r_qago[*] = s[cv(m)] / s[m_qago[cv(m)]]
		  )
		 ) v
		WHERE p = 'dvd' AND m IN ('1999-01', '1999-03')
		ORDER BY m`
	res, err := db.Query(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("S1: ratios to the year-ago and quarter-ago months:")
	fmt.Print(res)

	// m is only *functionally* independent (the right side reads other
	// months through the reference sheet), so the plain bounding-rectangle
	// analysis cannot push "m IN (...)". The optimizer uses one of the
	// paper's three reference transforms instead — inspect the plan:
	plan, err := db.Explain(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("plan with extended pushing (the default strategy):")
	fmt.Print(plan)

	cfg := db.Options()
	cfg.Ablate.Plan.Push = sqlsheet.PushRefSubquery
	db.Configure(cfg)
	plan, err = db.Explain(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nplan with ref-subquery pushing:")
	fmt.Print(plan)
}
