/**
 * @file
 * Crash-semantics tests for obs::FlightRing, the crash-persistent
 * flight recorder (docs/observability.md): record/seal/recover round
 * trips, wraparound across a seal, torn-slot and unsealed-tail
 * discard, the generation handshake across incarnations, the
 * shard-file placement contract `postmortem` depends on, and a real
 * fork + SIGKILL mid-write run recovered from the raw backing file --
 * the same failure envelope the server's recovery tests use.
 */

#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "obs/flight.hh"
#include "obs/trace.hh"
#include "pmem/arena.hh"

namespace lp::obs
{
namespace
{

/** Heap arena big enough for one ring of @p events plus slack. */
std::size_t
arenaBytes(std::uint32_t events)
{
    return FlightRing::bytesFor(events) + 4096;
}

TEST(FlightRing, RecordSealRecoverRoundTrip)
{
    pmem::PersistentArena arena(arenaBytes(64));
    FlightRing flight(arena, 64, 3);
    for (std::uint64_t i = 0; i < 10; ++i)
        flight.record(TraceEvent{"epoch_commit", 3, 1000 + i, 50, i,
                                 i | 1});
    flight.seal();

    const auto rec = FlightRing::recover(
        static_cast<const std::uint8_t *>(flight.raw()),
        FlightRing::bytesFor(64));
    ASSERT_TRUE(rec.valid);
    EXPECT_EQ(rec.sealedSeq, 10u);
    EXPECT_EQ(rec.tid, 3u);
    EXPECT_EQ(rec.rejected, 0u);
    ASSERT_EQ(rec.events.size(), 10u);
    for (std::uint64_t i = 0; i < 10; ++i) {
        EXPECT_STREQ(rec.events[i].name, "epoch_commit");
        EXPECT_EQ(rec.events[i].tsNs, 1000 + i);
        EXPECT_EQ(rec.events[i].durNs, 50u);
        EXPECT_EQ(rec.events[i].arg, i);
        EXPECT_EQ(rec.events[i].flowId, i | 1);
    }
}

TEST(FlightRing, UnknownNameCrossesAsUnknown)
{
    pmem::PersistentArena arena(arenaBytes(8));
    FlightRing flight(arena, 8, 0);
    flight.record(TraceEvent{"not-a-known-span", 0, 1, 2, 3, 0});
    flight.seal();
    const auto rec = FlightRing::recover(
        static_cast<const std::uint8_t *>(flight.raw()),
        FlightRing::bytesFor(8));
    ASSERT_TRUE(rec.valid);
    ASSERT_EQ(rec.events.size(), 1u);
    EXPECT_STREQ(rec.events[0].name, "?");
}

TEST(FlightRing, UnsealedTailIsDiscarded)
{
    pmem::PersistentArena arena(arenaBytes(64));
    FlightRing flight(arena, 64, 0);
    for (std::uint64_t i = 0; i < 6; ++i)
        flight.record(TraceEvent{"queue", 0, i, 1, i, 0});
    flight.seal();
    // Recorded but never sealed: the watermark still says 6.
    for (std::uint64_t i = 6; i < 11; ++i)
        flight.record(TraceEvent{"queue", 0, i, 1, i, 0});

    const auto rec = FlightRing::recover(
        static_cast<const std::uint8_t *>(flight.raw()),
        FlightRing::bytesFor(64));
    ASSERT_TRUE(rec.valid);
    EXPECT_EQ(rec.sealedSeq, 6u);
    EXPECT_EQ(rec.events.size(), 6u);
}

TEST(FlightRing, WraparoundAcrossSealKeepsNewestWindow)
{
    // Capacity 8; 20 sealed events: only the last 8 are recoverable.
    pmem::PersistentArena arena(arenaBytes(8));
    FlightRing flight(arena, 8, 0);
    for (std::uint64_t i = 0; i < 20; ++i)
        flight.record(TraceEvent{"queue", 0, i, 1, i, 0});
    flight.seal();

    const std::uint8_t *raw =
        static_cast<const std::uint8_t *>(flight.raw());
    {
        const auto rec =
            FlightRing::recover(raw, FlightRing::bytesFor(8));
        ASSERT_TRUE(rec.valid);
        EXPECT_EQ(rec.sealedSeq, 20u);
        EXPECT_EQ(rec.rejected, 0u);
        ASSERT_EQ(rec.events.size(), 8u);
        for (std::size_t i = 0; i < 8; ++i)
            EXPECT_EQ(rec.events[i].arg, 12 + i);
    }
    // Post-seal records overwrite the oldest sealed slots. Their
    // embedded seqs no longer match the sealed window, so recovery
    // counts them out instead of splicing new data into old spans.
    for (std::uint64_t i = 20; i < 23; ++i)
        flight.record(TraceEvent{"queue", 0, i, 1, i, 0});
    {
        const auto rec =
            FlightRing::recover(raw, FlightRing::bytesFor(8));
        ASSERT_TRUE(rec.valid);
        EXPECT_EQ(rec.sealedSeq, 20u);
        EXPECT_EQ(rec.rejected, 3u);
        ASSERT_EQ(rec.events.size(), 5u);
        for (std::size_t i = 0; i < 5; ++i)
            EXPECT_EQ(rec.events[i].arg, 15 + i);
    }
}

TEST(FlightRing, TornSlotFailsItsChecksumOnly)
{
    pmem::PersistentArena arena(arenaBytes(16));
    FlightRing flight(arena, 16, 0);
    for (std::uint64_t i = 0; i < 10; ++i)
        flight.record(TraceEvent{"queue", 0, i, 1, i, 0});
    flight.seal();

    // Tear one byte of slot 4's payload in a copy of the image (the
    // live ring stays pristine).
    std::vector<std::uint8_t> image(FlightRing::bytesFor(16));
    std::memcpy(image.data(), flight.raw(), image.size());
    image[2 * sizeof(FlightSlot) + 4 * sizeof(FlightSlot) + 8] ^= 0x40;

    const auto rec =
        FlightRing::recover(image.data(), image.size());
    ASSERT_TRUE(rec.valid);
    EXPECT_EQ(rec.rejected, 1u);
    ASSERT_EQ(rec.events.size(), 9u);
    for (const TraceEvent &e : rec.events)
        EXPECT_NE(e.arg, 4u);
}

TEST(FlightRing, GarbageIsNotARing)
{
    std::vector<std::uint8_t> junk(4096, 0xa5);
    EXPECT_FALSE(FlightRing::recover(junk.data(), junk.size()).valid);
    EXPECT_FALSE(FlightRing::recover(nullptr, 0).valid);
    // A valid header whose capacity overruns the readable region
    // must be rejected, not read past the end.
    pmem::PersistentArena arena(arenaBytes(64));
    FlightRing flight(arena, 64, 0);
    flight.record(TraceEvent{"queue", 0, 1, 1, 1, 0});
    flight.seal();
    EXPECT_FALSE(
        FlightRing::recover(
            static_cast<const std::uint8_t *>(flight.raw()),
            3 * sizeof(FlightSlot))
            .valid);
}

TEST(FlightRing, RestartAdoptsAndSupersedesThePriorGeneration)
{
    char path[] = "/tmp/lp-flight-gen-XXXXXX";
    const int fd = mkstemp(path);
    ASSERT_GE(fd, 0);
    ::close(fd);
    ::unlink(path); // arena recreates it
    std::uint64_t firstGen = 0;
    {
        pmem::PersistentArena arena(arenaBytes(16), path);
        FlightRing flight(arena, 16, 0);
        for (std::uint64_t i = 0; i < 5; ++i)
            flight.record(TraceEvent{"queue", 0, i, 1, i, 0});
        flight.seal();
        const auto rec = FlightRing::recover(
            static_cast<const std::uint8_t *>(flight.raw()),
            FlightRing::bytesFor(16));
        ASSERT_TRUE(rec.valid);
        firstGen = rec.gen;
        EXPECT_EQ(rec.events.size(), 5u);
    }
    {
        // The next incarnation claims the ring with an empty seal at
        // a later generation: its recovery view starts clean (this is
        // why postmortem must run BEFORE a restart).
        pmem::PersistentArena arena(arenaBytes(16), path);
        FlightRing flight(arena, 16, 0);
        const auto rec = FlightRing::recover(
            static_cast<const std::uint8_t *>(flight.raw()),
            FlightRing::bytesFor(16));
        ASSERT_TRUE(rec.valid);
        EXPECT_GT(rec.gen, firstGen);
        EXPECT_EQ(rec.sealedSeq, 0u);
        EXPECT_TRUE(rec.events.empty());
    }
    ::unlink(path);
}

TEST(FlightRing, FirstAllocationLandsAtTheArenaBaseOffset)
{
    // The placement contract `lazyper_cli postmortem` depends on:
    // allocated first, the ring's headers sit exactly one block into
    // the backing file.
    pmem::PersistentArena arena(arenaBytes(16));
    FlightRing flight(arena, 16, 0);
    EXPECT_EQ(arena.addrOf(flight.raw()), Addr(blockBytes));
}

TEST(FlightRing, TeesFromATraceRingBeyondItsCapacity)
{
    // The volatile ring fills and drops; the flight copy keeps
    // wrapping, so the persistent view always holds the newest
    // window rather than the oldest.
    pmem::PersistentArena arena(arenaBytes(64));
    FlightRing flight(arena, 64, 0);
    TraceRing ring(8);
    ring.attachSink(&flight);
    for (std::uint64_t i = 0; i < 40; ++i)
        traceInstant(&ring, "epoch_commit", i);
    flight.seal();
    EXPECT_EQ(ring.dropped(), 32u);
    EXPECT_EQ(flight.recorded(), 40u);
    const auto rec = FlightRing::recover(
        static_cast<const std::uint8_t *>(flight.raw()),
        FlightRing::bytesFor(64));
    ASSERT_TRUE(rec.valid);
    EXPECT_EQ(rec.events.size(), 40u);
}

TEST(FlightRing, SigkillMidWriteRecoversTheSealedPrefix)
{
    char path[] = "/tmp/lp-flight-kill-XXXXXX";
    const int tfd = mkstemp(path);
    ASSERT_GE(tfd, 0);
    ::close(tfd);
    ::unlink(path);

    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        // Child: record, seal at 100, keep recording, then die the
        // hard way mid-stream. No cleanup runs; the page cache keeps
        // every plain store.
        pmem::PersistentArena arena(arenaBytes(256), path);
        FlightRing flight(arena, 256, 7);
        for (std::uint64_t i = 0; i < 100; ++i)
            flight.record(
                TraceEvent{"commit_wait", 7, i, 10, i, i | 1});
        flight.seal();
        for (std::uint64_t i = 100;; ++i) {
            flight.record(
                TraceEvent{"commit_wait", 7, i, 10, i, i | 1});
            if (i == 150)
                ::kill(::getpid(), SIGKILL);
        }
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status));
    ASSERT_EQ(WTERMSIG(status), SIGKILL);

    // Decode the raw file exactly the way postmortem does.
    const int fd = ::open(path, O_RDONLY);
    ASSERT_GE(fd, 0);
    struct stat st{};
    ASSERT_EQ(::fstat(fd, &st), 0);
    void *map = ::mmap(nullptr, std::size_t(st.st_size), PROT_READ,
                       MAP_PRIVATE, fd, 0);
    ::close(fd);
    ASSERT_NE(map, MAP_FAILED);
    const auto rec = FlightRing::recover(
        static_cast<const std::uint8_t *>(map) + blockBytes,
        std::size_t(st.st_size) - blockBytes);
    ASSERT_TRUE(rec.valid);
    EXPECT_EQ(rec.sealedSeq, 100u);
    EXPECT_EQ(rec.tid, 7u);
    EXPECT_EQ(rec.rejected, 0u);
    ASSERT_EQ(rec.events.size(), 100u);
    for (std::uint64_t i = 0; i < 100; ++i) {
        EXPECT_STREQ(rec.events[i].name, "commit_wait");
        EXPECT_EQ(rec.events[i].arg, i);
    }
    ::munmap(map, std::size_t(st.st_size));
    ::unlink(path);
}

} // namespace
} // namespace lp::obs
