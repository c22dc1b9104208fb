/**
 * @file
 * Base class for simulated hardware objects: a name, access to the
 * shared event queue, and scheduling convenience helpers.
 */

#ifndef TSS_SIM_SIM_OBJECT_HH
#define TSS_SIM_SIM_OBJECT_HH

#include <string>
#include <utility>

#include "event_queue.hh"
#include "types.hh"

namespace tss
{

/**
 * A named participant in the simulation. Every hardware module
 * (gateway, TRS, ORT, OVT, NoC, cores) derives from SimObject and
 * shares one EventQueue.
 */
class SimObject
{
  public:
    SimObject(std::string name, EventQueue &eq)
        : _name(std::move(name)), _eventq(eq)
    {}

    virtual ~SimObject() = default;

    SimObject(const SimObject &) = delete;
    SimObject &operator=(const SimObject &) = delete;

    const std::string &name() const { return _name; }
    EventQueue &eventQueue() { return _eventq; }
    Cycle curCycle() const { return _eventq.now(); }

    /**
     * The object's station id — its NoC node — used as the event
     * tie-break key component and as the deferred-operation sort key
     * of the windowed engine. EventQueue::noStation until wired.
     */
    std::int32_t station() const { return _station; }
    void setStation(std::int32_t s) { _station = s; }

  protected:
    /** Schedule a member callback @p delay cycles from now. */
    void
    scheduleIn(Cycle delay, EventFn fn,
               int priority = EventQueue::defaultPriority)
    {
        _eventq.scheduleStation(_eventq.now() + delay, _station,
                                std::move(fn), priority);
    }

    /** Schedule a member callback at an absolute cycle. */
    void
    scheduleAt(Cycle when, EventFn fn,
               int priority = EventQueue::defaultPriority)
    {
        _eventq.scheduleStation(when, _station, std::move(fn),
                                priority);
    }

  private:
    std::string _name;
    EventQueue &_eventq;
    std::int32_t _station = EventQueue::noStation;
};

} // namespace tss

#endif // TSS_SIM_SIM_OBJECT_HH
