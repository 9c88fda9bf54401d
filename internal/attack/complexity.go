package attack

import "fmt"

// CostModel reproduces the temporal-complexity analysis of Table IX.
// All quantities are expressed in abstract "unit operations": TM and
// IM are the training and inference costs of the recommendation model,
// TC and IC those of the AIA classifier. The paper assumes I << T and
// IC ≈ IM; the constructors below plug in the concrete workload sizes
// so benchmarks can print the table with numbers next to the formulas.
type CostModel struct {
	// Users is |U|, the number of participants.
	Users int
	// TargetSize is |V_target|.
	TargetSize int
	// DMax is the size of the largest user training set.
	DMax int
	// TrainModel (TM) is the cost of training one recommendation model.
	TrainModel float64
	// InferModel (IM) is the cost of one model inference.
	InferModel float64
	// TrainClassifier (TC) and InferClassifier (IC) are the AIA
	// classifier costs.
	TrainClassifier float64
	InferClassifier float64
	// FictiveUsers is N+M, the AIA fictive sample count.
	FictiveUsers int
}

// CIACost is O(TM) + O(IM·|U|·|V_target|): one fictive-embedding fit
// (the Share-less worst case) plus one inference per user per target
// item — the paper's formula for one target, which Table IX keeps. A
// multi-target instance here (the FL server, every user a target)
// memoizes per-item terms across targets, so its full-model scoring
// costs IM·|U|·|∪V_target| per round, not IM·|U|·Σ|V_target|.
func (c CostModel) CIACost() float64 {
	return c.TrainModel + c.InferModel*float64(c.Users)*float64(c.TargetSize)
}

// MIACost is O(TM) + O(IM·|U|·Dmax): the entropy MIA must probe
// candidate training items for every user, up to the largest training
// set.
func (c CostModel) MIACost() float64 {
	return c.TrainModel + c.InferModel*float64(c.Users)*float64(c.DMax)
}

// AIACost is O(TM·(N+M)) + O(TC) + O(IC·|U|): N+M fictive model
// trainings, a classifier fit, and one classification per user.
func (c CostModel) AIACost() float64 {
	return c.TrainModel*float64(c.FictiveUsers) + c.TrainClassifier +
		c.InferClassifier*float64(c.Users)
}

// Table renders the three rows of Table IX with both the symbolic
// complexity and the plugged-in unit-operation estimate.
func (c CostModel) Table() string {
	return fmt.Sprintf(
		"CIA  O(TM) + O(IM*|U|*|Vtarget|)      = %.3g units\n"+
			"MIA  O(TM) + O(IM*|U|*Dmax)           = %.3g units\n"+
			"AIA  O(TM*(N+M)) + O(TC) + O(IC*|U|)  = %.3g units\n",
		c.CIACost(), c.MIACost(), c.AIACost())
}
