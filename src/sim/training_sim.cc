#include "sim/training_sim.hh"

#include <algorithm>

#include "common/logging.hh"

namespace libra {

TrainingSim::TrainingSim(Network net, TrainingSimOptions options)
    : net_(std::move(net)), options_(options)
{}

std::vector<CollectiveJob>
TrainingSim::jobsFor(const std::vector<CommOp>& ops,
                     const Parallelization& strategy,
                     Seconds release) const
{
    std::vector<CollectiveJob> jobs;
    for (const auto& op : ops) {
        std::vector<DimSpan> spans;
        bool eff = options_.modelPartialDimEfficiency;
        switch (op.scope) {
          case CommScope::Tp:
            spans = mapGroupToDims(net_, 1, strategy.tp, eff);
            break;
          case CommScope::Pp:
            spans = mapGroupToDims(net_, strategy.tp, strategy.pp, eff);
            break;
          case CommScope::Dp:
            spans = mapGroupToDims(net_, strategy.tp * strategy.pp,
                                   strategy.dp, eff);
            break;
          case CommScope::All:
            spans = mapGroupToDims(net_, 1, net_.npus(), eff);
            break;
        }
        if (spans.empty())
            continue;
        CollectiveJob job;
        job.type = op.type;
        job.size = op.size;
        job.spans = std::move(spans);
        job.numChunks = options_.chunksPerCollective;
        job.releaseTime = release;
        job.policy = options_.policy;
        jobs.push_back(std::move(job));
    }
    return jobs;
}

TrainingSimResult
TrainingSim::simulate(const Workload& w, const BwConfig& bw) const
{
    if (w.strategy.npus() != net_.npus()) {
        fatal("workload ", w.name, " uses ", w.strategy.npus(),
              " NPUs but network ", net_.name(), " has ", net_.npus());
    }
    if (bw.size() != net_.numDims())
        panic("bw rank ", bw.size(), " != dims ", net_.numDims());
    TrainingSimResult result;
    result.dimBusy.assign(net_.numDims(), 0.0);

    auto accumulate = [&result](const TimelineResult& tl) {
        for (std::size_t d = 0; d < tl.dimBusy.size(); ++d)
            result.dimBusy[d] += tl.dimBusy[d];
        result.commTime += tl.makespan;
        return tl.makespan;
    };

    auto runSequential = [&](const std::vector<CollectiveJob>& jobs) {
        Seconds t = 0.0;
        for (const auto& job : jobs) {
            // jobsFor(..., 0.0) released every job at time zero.
            t += accumulate(runChunkTimeline(bw, {&job, 1}));
        }
        return t;
    };

    for (const auto& layer : w.layers) {
        // Forward: compute then communication, always exclusive.
        result.total += layer.fwdCompute;
        result.computeTotal += layer.fwdCompute;
        result.total +=
            runSequential(jobsFor(layer.fwdComm, w.strategy, 0.0));

        switch (options_.loop) {
          case TrainingLoop::NoOverlap: {
            result.total += layer.igCompute;
            result.computeTotal += layer.igCompute;
            result.total +=
                runSequential(jobsFor(layer.igComm, w.strategy, 0.0));
            result.total += layer.wgCompute;
            result.computeTotal += layer.wgCompute;
            result.total +=
                runSequential(jobsFor(layer.wgComm, w.strategy, 0.0));
            break;
          }
          case TrainingLoop::TpDpOverlap: {
            // TP comm starts when input-grad compute retires; DP comm
            // waits for the weight-grad compute. Both share the fabric.
            result.total += layer.igCompute;
            result.computeTotal +=
                layer.igCompute + layer.wgCompute;
            auto jobs = jobsFor(layer.igComm, w.strategy, 0.0);
            auto wgJobs =
                jobsFor(layer.wgComm, w.strategy, layer.wgCompute);
            jobs.insert(jobs.end(), wgJobs.begin(), wgJobs.end());
            Seconds tail;
            if (jobs.empty()) {
                tail = layer.wgCompute;
            } else {
                TimelineResult tl = runChunkTimeline(bw, jobs);
                tail = std::max(accumulate(tl), layer.wgCompute);
            }
            result.total += tail;
            break;
          }
        }
    }

    double sumBw = 0.0;
    double weighted = 0.0;
    for (std::size_t d = 0; d < net_.numDims(); ++d) {
        sumBw += bw[d];
        weighted += result.dimBusy[d] * bw[d];
    }
    if (result.commTime > 0.0 && sumBw > 0.0) {
        result.avgBwUtilization =
            weighted / (result.commTime * sumBw);
    }
    return result;
}

} // namespace libra
