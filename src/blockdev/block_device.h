/**
 * @file
 * The black-box block device interface.
 *
 * SSDcheck's entire contract with a device is this interface: submit a
 * request at a virtual time, get back a completion time. Diagnosis and
 * the runtime model may only use what a host could observe (addresses,
 * sizes, timestamps). Devices additionally advertise their capacity,
 * exactly as a real device does through its identify data.
 *
 * Timing contract: submit() must be called with nondecreasing
 * timestamps. The returned completion time may be far in the future
 * (the request is "in flight"); devices internally account for
 * resources so overlapping in-flight requests queue correctly.
 */
#pragma once

#include <cstdint>
#include <string>

#include "blockdev/request.h"
#include "sim/sim_time.h"

namespace ssdcheck::blockdev {

/** Abstract block device operating in virtual time. */
class BlockDevice
{
  public:
    virtual ~BlockDevice() = default;

    /**
     * Submit one request at virtual time @p now.
     * @pre now is >= the timestamp of every earlier submit().
     * @return completion record (completeTime >= now).
     */
    [[nodiscard]] virtual IoResult submit(const IoRequest &req,
                                          sim::SimTime now) = 0;

    /**
     * Submit with the host's latency forecast for @p req (0 = none).
     * Layers that act on forecasts override this (the resilience
     * policy hedges reads forecast slow); the default ignores it.
     */
    [[nodiscard]] virtual IoResult
    submitHinted(const IoRequest &req, sim::SimTime now,
                 sim::SimDuration predictedLatency)
    {
        (void)predictedLatency;
        return submit(req, now);
    }

    /**
     * Whether the forecasts passed to submitHinted() are currently
     * trustworthy (the health supervisor's verdict on the model).
     * Layers that act on forecasts override this; the default
     * ignores it.
     */
    virtual void trustForecasts(bool trusted) { (void)trusted; }

    /** Device capacity in sectors. */
    virtual uint64_t capacitySectors() const = 0;

    /** Device capacity in FTL pages. */
    uint64_t capacityPages() const
    {
        return capacitySectors() / kSectorsPerPage;
    }

    /**
     * Discard the whole device (TRIM/purge). Used by the SNIA-style
     * test flow: purge, precondition, then measure in steady state.
     */
    virtual void purge(sim::SimTime now) = 0;

    /** Short identifying name for reports. */
    virtual std::string name() const = 0;
};

} // namespace ssdcheck::blockdev

