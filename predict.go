package flowsched

import (
	"fmt"
	"strings"
	"time"

	"flowsched/internal/predict"
)

// PredictOptions selects and tunes a duration predictor (see
// docs/prediction.md and internal/predict).
type PredictOptions struct {
	// Method is "mean" (default), "ewma", or "regression".
	Method string
	// Alpha is the EWMA smoothing factor in (0, 1]; 0 selects 0.5.
	Alpha float64
	// Sizes quantify the historical task inputs, indexed by schedule
	// instance position in version order (planned-but-never-completed
	// instances count). Only the regression predictor reads them.
	Sizes []float64
	// Size is the size of the task being predicted (regression only).
	Size float64
}

// Prediction is one duration estimate from historical schedule data.
type Prediction struct {
	// Activity is the predicted activity.
	Activity string `json:"activity"`
	// Method is the predictor that produced the estimate.
	Method string `json:"method"`
	// Estimate is the predicted working time.
	Estimate time.Duration `json:"estimate"`
	// Samples counts the completed history samples consulted.
	Samples int `json:"samples"`
}

// PredictorAccuracy is a back-test score (MAE, MAPE, sample counts).
type PredictorAccuracy = predict.Accuracy

// predictorFor resolves a PredictOptions to a concrete predictor and
// its canonical method name.
func predictorFor(opt PredictOptions) (predict.Predictor, string, error) {
	switch strings.ToLower(opt.Method) {
	case "", "mean":
		return predict.Mean{}, "mean", nil
	case "ewma":
		alpha := opt.Alpha
		if alpha == 0 {
			alpha = 0.5
		}
		return predict.EWMA{Alpha: alpha}, "ewma", nil
	case "regression":
		return predict.Regression{}, "regression", nil
	default:
		return nil, "", fmt.Errorf("flowsched: unknown prediction method %q (want mean, ewma, or regression)", opt.Method)
	}
}

// PredictDuration estimates an activity's next duration from the
// snapshot's completed schedule history — the paper's motivating use of
// retained schedule metadata ("previous schedule data can be used to
// predict the duration of future projects", §I).
func (v *ProjectView) PredictDuration(activity string, opt PredictOptions) (*Prediction, error) {
	pred, method, err := predictorFor(opt)
	if err != nil {
		return nil, err
	}
	hist, err := predict.HistoryOf(v.m.Sched, v.m.Calendar, activity, opt.Sizes)
	if err != nil {
		return nil, err
	}
	if len(hist) == 0 {
		return nil, fmt.Errorf("flowsched: activity %q has no completed history to predict from", activity)
	}
	est, err := pred.Predict(hist, opt.Size)
	if err != nil {
		return nil, err
	}
	return &Prediction{Activity: activity, Method: method, Estimate: est, Samples: len(hist)}, nil
}

// EvaluatePredictor back-tests a predictor over the snapshot's history
// of the activity: each completed sample is predicted from the ones
// before it, with the first warmup samples (minimum 1) used as seed
// history only.
func (v *ProjectView) EvaluatePredictor(activity string, opt PredictOptions, warmup int) (PredictorAccuracy, error) {
	pred, _, err := predictorFor(opt)
	if err != nil {
		return PredictorAccuracy{}, err
	}
	hist, err := predict.HistoryOf(v.m.Sched, v.m.Calendar, activity, opt.Sizes)
	if err != nil {
		return PredictorAccuracy{}, err
	}
	return predict.Evaluate(pred, hist, warmup)
}
